"""Command line interface.

JSON in, canonical JSON out.  Payloads are objects with a "p" key and
one of "module", "collection", or "poset"; modules and collections embed
their posets, so a payload is self-contained and pipeable.  Output is
serialized with sorted keys and no whitespace, one object per line, so
identical inputs give byte-identical output.  Errors go to stderr only.

Exit codes: 0 success, 1 domain-level failure (validation, missing
structure such as joins, mismatched posets) or a closed stdout, 2
refused shortcut (the degeneracy hypothesis failed and --force was not
given), 3 size bound exceeded, 4 malformed input or usage error.  A
closed stdout is pointed at os.devnull and exits 1 with no error line.
"""
import argparse
import contextlib
import json
import os
import sys

from relbetti.collections import (
    all_subfunctors,
    lower_hooks,
    lower_hooks_inf,
    rectangles_grid,
    rectangles_naive,
    single_source_omega0,
    singleton,
    spreads_omega,
    translated,
)
from relbetti.errors import (
    FunctorialityViolation,
    HypothesisNotVerified,
    InputError,
    NotSemilattice,
    NotThin,
    PosetMismatch,
    RelbettiError,
    SizeBoundExceeded,
)
from relbetti.fieldlin import check_modulus
from relbetti.homalg import (
    BettiDiagram,
    betti,
    koszul,
    koszul_betti_diagram,
    minimal_resolution,
)
from relbetti.pmod import PersistenceModule, m0_demo
from relbetti.pmod import validate as validate_module
from relbetti.poset import Poset, parse_nonnegative
from relbetti.relative import (
    CollectionFunctor,
    degeneracy_hypothesis,
    is_flat,
    is_thin,
    relative_betti_diagram,
    relative_minimal_resolution,
)


# -- plumbing ----------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; that code is taken
    def error(self, message):
        raise InputError(message)

    def parse_args(self, args=None, namespace=None):
        # an unknown option's value is read as a positional, which pushes
        # a good word out: leftover options are named alone
        args, extras = self.parse_known_args(args, namespace)
        if extras:
            options = [a for a in extras if a.startswith("-") and a != "-"]
            self.error("unrecognized arguments: "
                       + " ".join(options or extras))
        return args


@contextlib.contextmanager
def _input_error(what=None):
    """Turn the KeyError, TypeError or ValueError of malformed input into
    InputError, its message prefixed by what names that input; a
    KeyError reads as the key the input is missing."""
    try:
        yield
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, KeyError):
            exc = f"missing key {exc.args[0]!r}"
        raise InputError(f"{what}: {exc}" if what else str(exc)) from None


def _read_json(source, what, inline=False):
    """The JSON object in a file, in stdin (source "-") or, inline, in
    source itself.  Bytes that are not UTF-8, nesting too deep to parse,
    a number with more digits than Python converts and a value that is
    not an object are all malformed JSON; what names the input in that
    last refusal.  A source that cannot be opened or read is malformed
    input too."""
    try:
        if inline:
            text = source
        elif source == "-":
            text = sys.stdin.buffer.read()
        else:
            with open(source, "rb") as fh:
                text = fh.read()
    except OSError as exc:
        raise InputError(str(exc)) from None
    try:
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise InputError(f"malformed JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise InputError(f"malformed JSON: {what} must be an object")
    return obj


def _field(p, source):
    with _input_error(source):
        return check_modulus(p)


def _payload_p(obj):
    if obj.get("p") is None:
        raise InputError('payload has no "p"')
    return _field(obj["p"], "payload p")


def _nonnegative(text):
    try:
        return parse_nonnegative(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _load_module(mj, p, label=None):
    """The module that mj encodes, refused unless functorial.  A module
    other than the payload's own has a label, put in front of its
    errors."""
    if mj is None:
        raise InputError('payload has no "module"')
    with _input_error(f"bad {label or 'module payload'}"):
        m = PersistenceModule.from_json(mj, p)
    try:
        return validate_module(m)
    except FunctorialityViolation as exc:
        if label is None:
            raise
        raise FunctorialityViolation(f"{label}: {exc}") from None


def _load_collection_json(obj, p):
    if not isinstance(obj, dict):
        raise InputError("collection payload must be an object")
    if obj.get("p") is not None and _field(obj["p"], "collection p") != p:
        raise InputError("collection payload disagrees about p")
    obj = dict(obj, p=p)
    with _input_error("bad collection payload"):
        return CollectionFunctor.from_json(obj)


def _emit(payload):
    sys.stdout.write(
        json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    )


# -- collection builders -----------------------------------------------

_PLAIN_BUILTINS = {
    "lower_hooks": lower_hooks,
    "lower_hooks_inf": lower_hooks_inf,
    "rectangles_naive": rectangles_naive,
    "all_subfunctors": all_subfunctors,
    "spreads_omega": spreads_omega,
    "single_source_omega0": single_source_omega0,
}
BUILTIN_NAMES = sorted(
    [*_PLAIN_BUILTINS, "singleton", "translated", "rectangles_grid"]
)
# the params each builtin reads; the others read none
_BUILTIN_PARAMS = {
    "singleton": {"member"},
    "translated": {"T"},
}


def _build_builtin(name, params, base, p):
    if name not in BUILTIN_NAMES:
        raise InputError(
            f"unknown builtin {name!r}; known: {', '.join(BUILTIN_NAMES)}"
        )
    unknown = sorted(set(params) - _BUILTIN_PARAMS.get(name, set()))
    if unknown:
        raise InputError(f"builtin {name!r} reads no param {unknown[0]!r}")
    if name == "singleton":
        mj = params.get("member")
        if mj is None:
            raise InputError('singleton needs a "member" module in params')
        return singleton(_load_module(mj, p, "singleton member"))
    if base is None:
        raise InputError(f"builtin {name!r} needs a poset in the payload")
    if name in _PLAIN_BUILTINS:
        return _PLAIN_BUILTINS[name](base, p)
    if name == "translated":
        T = params.get("T")
        if not isinstance(T, list) or not all(isinstance(t, list) for t in T):
            raise InputError('translated needs a "T" list of lists in params')
        with _input_error("bad translation set"):
            return translated(
                base, [[parse_nonnegative(c) for c in t] for t in T], p
            )
    if name == "rectangles_grid":
        if base.grid_shape is None:
            raise InputError('rectangles_grid needs a {"grid": ...} poset')
        return rectangles_grid(*base.grid_shape, p)


def _collection_from_flag(text, base, p):
    """Interpret --collection: builtin name, inline JSON, or a file path.

    Returns (collection, label) where the label names the builtin or is
    "explicit" for a collection given in full.
    """
    if text.lstrip().startswith("{"):
        obj = _read_json(text, "--collection", inline=True)
    elif text in BUILTIN_NAMES:
        obj = {"builtin": text}
    elif os.path.exists(text):
        obj = _read_json(text, "--collection")
    else:
        raise InputError(
            f"--collection {text!r} is not a builtin name, JSON, or file"
        )
    if "builtin" in obj:
        params = obj.get("params", {})
        if not isinstance(params, dict):
            raise InputError('"params" must be an object')
        name = obj["builtin"]
        if not isinstance(name, str):
            raise InputError(f'"builtin" must be a name, got {name!r}')
        return _build_builtin(name, params, base, p), name
    if "J" in obj:
        return _load_collection_json(obj, p), "explicit"
    raise InputError('collection JSON needs "builtin" or an explicit "J"')


def _base_poset(obj):
    """Poset carried by a payload, from its poset or module key."""
    if "poset" in obj:
        pj = obj["poset"]
    elif isinstance(obj.get("module"), dict) and "poset" in obj["module"]:
        pj = obj["module"]["poset"]
    else:
        return None
    with _input_error("bad poset payload"):
        return Poset.from_json(pj)


# -- rendering ---------------------------------------------------------


def _diagram_table(diagram, poset):
    top = diagram.max_degree()
    if top < 0:
        return "(empty diagram)\n"
    by_name = {}
    for (d, a), k in diagram.items():
        by_name.setdefault(poset.names[a], {})[d] = k
    width = max(len(nm) for nm in by_name)
    header = "at".ljust(width) + "".join(
        f"  d={d}" for d in range(top + 1)
    )
    lines = [header]
    for nm in sorted(by_name):
        row = nm.ljust(width)
        for d in range(top + 1):
            cell = by_name[nm].get(d, "")
            row += f"  {cell!s:>3}"
        lines.append(row)
    return "\n".join(lines) + "\n"


def _dot(name, rankdir, body):
    """A DOT digraph: the frame around its statement lines."""
    lines = [f"digraph {name} {{", f"  rankdir={rankdir};", *body, "}"]
    return "\n".join(lines) + "\n"


def _diagram_dot(diagram, poset):
    by_elt = {}
    for (d, a), k in diagram.items():
        by_elt.setdefault(a, []).append(f"b{d}={k}")
    lines = []
    for a in range(poset.n):
        label = poset.names[a]
        if a in by_elt:
            label += r"\n" + " ".join(by_elt[a])
            lines.append(f'  n{a} [label="{label}", shape=box];')
        else:
            lines.append(f'  n{a} [label="{label}"];')
    for a, b in poset.sorted_covers:
        lines.append(f"  n{a} -> n{b};")
    return _dot("betti", "BT", lines)


def _term_label(d, term):
    parts = [
        e["at"] if e["mult"] == 1 else f'{e["at"]}^{e["mult"]}' for e in term
    ]
    return f"C{d} = " + (" + ".join(parts) if parts else "0")


def _render_chain(args, res, poset, dmax, fields):
    """Write a resolution's terms; its JSON form adds fields."""
    mults = res.multiplicities()
    terms = [
        [{"at": poset.names[a], "mult": k}
         for a, k in sorted(mults.degree(d).items())]
        for d in range(len(res.generators))
    ]
    if args.format == "table":
        lines = [_term_label(d, term) for d, term in enumerate(terms)]
        sys.stdout.write("\n".join(lines or ["(empty chain)"]) + "\n")
    elif args.format == "dot":
        total = sum(res.target.dims)
        lines = [f'  M [shape=box, label="target (total dim {total})"];']
        for d, term in enumerate(terms):
            lines.append(f'  C{d} [label="{_term_label(d, term)}"];')
            lines.append(f"  C{d} -> {'M' if d == 0 else f'C{d - 1}'};")
        sys.stdout.write(_dot("resolution", "LR", lines))
    else:
        _emit({
            **fields,
            "complete": res.complete,
            "dmax": dmax,
            "length": res.length,
            "minimal": res.minimal,
            "multiplicities": mults.to_json(poset),
            "terms": terms,
        })


def _render_diagram(args, diagram, poset, dmax, fields):
    """Write a multiplicity table; its JSON form adds fields."""
    if args.format == "json":
        _emit({
            **fields,
            "betti": diagram.to_json(poset)["betti"],
            "dmax": dmax,
            "method": args.method,
        })
    elif args.format == "table":
        sys.stdout.write(_diagram_table(diagram, poset))
    else:
        sys.stdout.write(_diagram_dot(diagram, poset))


# -- verbs -------------------------------------------------------------


def _cmd_demo(args):
    if args.target != "m0":
        raise InputError(f"unknown demo target {args.target!r}; have: m0")
    p = _field(args.field, "--field")
    m = m0_demo(p)
    if args.format == "json":
        _emit({"p": p, "module": m.to_json()})
    elif args.format == "table":
        lines = [
            f"{m.poset.names[a]} {d}"
            for a, d in enumerate(m.dims)
            if d
        ]
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        support = BettiDiagram(
            {(0, a): d for a, d in enumerate(m.dims) if d}
        )
        sys.stdout.write(_diagram_dot(support, m.poset))


def _cmd_validate(args):
    obj = _read_json(args.input, "payload")
    has_module = "module" in obj
    has_coll = "collection" in obj
    if has_module == has_coll:
        raise InputError('payload needs exactly one of "module", "collection"')
    p = _payload_p(obj)
    if has_module:
        _load_module(obj["module"], p)
        _emit({"ok": True, "kind": "module", "p": p})
    else:
        _load_collection_json(obj["collection"], p)
        _emit({"ok": True, "kind": "collection", "p": p})


def _module_input(args):
    """The payload's module and the modulus it is read with."""
    obj = _read_json(args.input, "payload")
    p = _payload_p(obj)
    return _load_module(obj.get("module"), p), p


def _collection_over(args, m, p):
    """--collection, refused unless its members live over m's poset."""
    coll, label = _collection_from_flag(args.collection, m.poset, p)
    if coll.domain != m.poset:
        raise PosetMismatch("collection members live over a different poset")
    return coll, label


def _cmd_betti(args):
    m, p = _module_input(args)
    dmax = m.poset.n if args.dmax is None else args.dmax
    if args.method == "koszul":
        diagram = koszul_betti_diagram(m, dmax)
    else:
        diagram = betti(m, dmax)
    _render_diagram(args, diagram, m.poset, dmax, {"p": p})


def _cmd_rbetti(args):
    m, p = _module_input(args)
    coll, label = _collection_over(args, m, p)
    dmax = coll.index.n if args.dmax is None else args.dmax
    fields = {"collection": label, "p": p}
    if args.method == "resolution":
        diagram = relative_minimal_resolution(coll, m, dmax).multiplicities()
    else:
        try:
            diagram = relative_betti_diagram(coll, m, dmax)
        except HypothesisNotVerified:
            if not args.force:
                raise
            diagram = relative_betti_diagram(coll, m, dmax, force=True)
            fields["unverified"] = True
    _render_diagram(args, diagram, coll.index, dmax, fields)


def _cmd_resolve(args):
    m, p = _module_input(args)
    dmax = m.poset.n if args.dmax is None else args.dmax
    _render_chain(args, minimal_resolution(m, dmax), m.poset, dmax, {"p": p})


def _cmd_rresolve(args):
    m, p = _module_input(args)
    coll, label = _collection_over(args, m, p)
    res = relative_minimal_resolution(coll, m, args.dmax)
    _render_chain(
        args, res, coll.index, args.dmax, {"collection": label, "p": p}
    )


def _cmd_koszul(args):
    m, p = _module_input(args)
    if args.at not in m.poset.names:
        raise InputError(f"no element named {args.at!r}")
    a = m.poset.index(args.at)
    k = koszul(m, a)
    names = m.poset.names
    _emit({
        "at": args.at,
        "differentials": [d.tolist() for d in k.diffs],
        "dims": [int(d) for d in k.dims],
        "homology": [int(h) for h in k.homology()],
        "index_sets": [
            [[names[i] for i in s] for s in level] for level in k.index_sets
        ],
        "meets": [[names[i] for i in ms] for ms in k.meets],
        "p": p,
    })


def _check_record(fn, coll):
    try:
        holds, witness = fn(coll)
    except (NotThin, NotSemilattice) as exc:
        return {"holds": None, "witness": None, "reason": str(exc)}
    rec = {"holds": holds, "witness": None}
    if witness is not None:
        a, b = witness
        rec["witness"] = [coll.index.names[a], coll.index.names[b]]
    return rec


def _cmd_check(args):
    obj = _read_json(args.input, "payload")
    p = _payload_p(obj)
    if args.collection is not None:
        coll, label = _collection_from_flag(
            args.collection, _base_poset(obj), p
        )
    elif "collection" in obj:
        coll = _load_collection_json(obj["collection"], p)
        label = "explicit"
    else:
        raise InputError("nothing to check: give --collection or a payload one")
    wanted = [
        name
        for name, on in (
            ("thin", args.thin),
            ("flat", args.flat),
            ("degeneracy", args.degeneracy),
        )
        if on
    ] or ["thin", "flat", "degeneracy"]
    fns = {
        "thin": is_thin,
        "flat": is_flat,
        "degeneracy": degeneracy_hypothesis,
    }
    checks = {name: _check_record(fns[name], coll) for name in wanted}
    _emit({"checks": checks, "collection": label, "p": p})


# -- argument surface --------------------------------------------------


def _parser():
    rendering = argparse.ArgumentParser(add_help=False)
    rendering.add_argument(
        "--format", choices=("json", "dot", "table"), default="json",
        help="output rendering (default json)",
    )

    payload = argparse.ArgumentParser(add_help=False)
    payload.add_argument(
        "input", nargs="?", default="-", metavar="FILE",
        help="payload file, or - for stdin (default)",
    )

    parser = _Parser(
        prog="relbetti",
        description="Betti diagrams of poset modules over prime fields, "
        "standard and relative to a collection of projectives.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    s = sub.add_parser("demo", parents=[rendering],
                       help="write a worked example payload")
    s.add_argument("target", help="which example; currently: m0")
    s.add_argument("--field", type=int, default=2, metavar="P",
                   help="field characteristic of the payload (default 2)")
    s.set_defaults(fn=_cmd_demo)

    s = sub.add_parser("validate", parents=[payload],
                       help="check a module or collection payload")
    s.set_defaults(fn=_cmd_validate)

    s = sub.add_parser("betti", parents=[rendering, payload],
                       help="standard multiplicity table")
    s.add_argument("--method", choices=("resolution", "koszul"),
                   default="resolution")
    s.add_argument("--dmax", type=_nonnegative, default=None,
                   help="truncation degree (default: poset size)")
    s.set_defaults(fn=_cmd_betti)

    s = sub.add_parser("rbetti", parents=[rendering, payload],
                       help="relative multiplicity table")
    s.add_argument("--method", choices=("resolution", "koszul"),
                   default="koszul")
    s.add_argument("--collection", required=True,
                   help="builtin name, inline JSON, or file")
    s.add_argument("--dmax", type=_nonnegative, default=None,
                   help="truncation degree (default: index size)")
    s.add_argument("--force", action="store_true",
                   help="run the local route even if the degeneracy "
                   "hypothesis fails; output is then tagged unverified")
    s.set_defaults(fn=_cmd_rbetti)

    s = sub.add_parser("resolve", parents=[rendering, payload],
                       help="minimal free resolution")
    s.add_argument("--dmax", type=_nonnegative, default=None)
    s.set_defaults(fn=_cmd_resolve)

    s = sub.add_parser("rresolve", parents=[rendering, payload],
                       help="relative minimal resolution")
    s.add_argument("--collection", required=True)
    s.add_argument("--dmax", type=_nonnegative, required=True,
                   help="truncation degree; relative chains can be "
                   "unbounded")
    s.set_defaults(fn=_cmd_rresolve)

    s = sub.add_parser("koszul", parents=[payload],
                       help="local complex at one element")
    s.add_argument("--at", required=True, metavar="NAME")
    s.set_defaults(fn=_cmd_koszul)

    s = sub.add_parser("check", parents=[payload],
                       help="report collection properties")
    s.add_argument("--collection", default=None)
    s.add_argument("--thin", action="store_true")
    s.add_argument("--flat", action="store_true")
    s.add_argument("--degeneracy", action="store_true")
    s.set_defaults(fn=_cmd_check)

    return parser


def main(argv=None):
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        args.fn(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader of stdout is gone: the flush at exit would fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except SizeBoundExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except HypothesisNotVerified as exc:
        print(
            f"error: {exc}\n(the table may still be computed with --force, "
            "or honestly with --method resolution)",
            file=sys.stderr,
        )
        return 2
    except RelbettiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
