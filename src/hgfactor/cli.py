"""Command line front end.

Exit codes: 0 on success, 1 on a negative verdict (non-member, no
partition, dec 0, not strict, no decomposition, no factorization found),
2 on usage or input-format problems or an output file that cannot be
written, 3 when a configured cap was hit.
Every search runs serially: --workers and the workers key are accepted
(at least 1) and ignored, so reports do not depend on them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, fields, replace

from .core import (
    CapExceededError,
    EdgeKind,
    FormatError,
    HgError,
    Hypergraph,
    _EdgeLines,
    _format_key,
    _parse_universe_spec,
    parse_hypergraph,
    simple_universe,
)
from .generate import HARD_VERTEX_CAP, EnumSpec, _class_keys
from .props import (
    BoundExceededError,
    FiniteForbidden,
    GeneratedBounded,
    ProductProperty,
    load_property,
    partition_solve,
)
from .decomp import (
    BOUNDED,
    DEFAULT_K_MAX,
    DEFAULT_MEMBER_CAP,
    EXACT,
    Decomposition,
    all_decompositions,
    dec_number,
    is_strict,
    strictness_witness,
)
from .construct import (
    DEFAULT_SIZE_CAP,
    aligning_super,
    decomposition_blocker,
    forcing_pair,
    format_copy_tracked,
    unique_super,
)
from .factor import (
    IRREDUCIBLE_CERTIFIED,
    REDUCIBLE,
    _mode_for as _default_mode,
    dec_bounds,
    irreducibility_test,
)

__all__ = ["CliConfig", "load_config", "main", "run"]


class UsageError(Exception):
    pass


@dataclass(frozen=True)
class CliConfig:
    max_vertices: int = HARD_VERTEX_CAP
    member_cap: int = DEFAULT_MEMBER_CAP
    gstar_size_cap: int = DEFAULT_SIZE_CAP
    k_max: int = DEFAULT_K_MAX
    workers: int = 1


_INT_KEYS = tuple(f.name for f in fields(CliConfig))


def parse_config_text(text: str) -> dict:
    """key=value lines; blank lines and # comments ignored."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise FormatError("expected key=value", lineno)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in _INT_KEYS:
            try:
                out[key] = int(value)
            except ValueError:
                raise FormatError(f"{key} needs an integer, got {value!r}", lineno)
            if out[key] < 1:
                raise FormatError(f"{key} must be positive", lineno)
        else:
            raise FormatError(f"unknown configuration key {key!r}", lineno)
    return out


def load_config(path=None) -> CliConfig:
    """Defaults, then the HGFACTOR_CONFIG file, then the explicit file."""
    cfg = CliConfig()
    for source in (os.environ.get("HGFACTOR_CONFIG"), path):
        if not source:
            continue
        try:
            with open(source, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError(f"cannot read config file {source}: {exc}")
        cfg = replace(cfg, **parse_config_text(text))
    return cfg


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}")


def _load_graph(path: str) -> Hypergraph:
    return parse_hypergraph(_read_text(path))


def _load_property(path: str):
    if path == "-":
        raise UsageError("properties must come from files (factor paths "
                         "resolve relative to the property file)")
    try:
        _, p = load_property(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}")
    return p


def _parse_parts(spec: str) -> tuple:
    """Accepts 0,2|1,3 and the report form {0,2}|{1,3}; no vertex may be
    in two blocks."""
    parts, seen = [], set()
    for block in spec.split("|"):
        block = block.strip().strip("{}")
        names = [s.strip() for s in block.split(",") if s.strip()]
        try:
            verts = frozenset(int(s) for s in names)
        except ValueError:
            raise UsageError(f"bad vertex list {block!r} (want e.g. 0,2|1,3)")
        if not verts:
            raise UsageError("empty block in partition argument")
        if verts & seen:
            raise UsageError(f"vertex {min(verts & seen)} is in two blocks")
        seen |= verts
        parts.append(verts)
    if not parts:
        raise UsageError("empty partition argument")
    return tuple(parts)


def _blocks_str(parts) -> str:
    return "|".join(
        "{" + ",".join(str(v) for v in sorted(p)) + "}" for p in parts)


def _mode_for(args, p) -> str:
    if args.mode == "exact":
        return EXACT
    if args.mode == "bounded":
        return BOUNDED
    return _default_mode(p)


def _check_vertex_count(n: int, flag: str, cfg: CliConfig) -> None:
    if n < 0:
        raise UsageError(f"{flag} must be at least 0, got {n}")
    if n > cfg.max_vertices:
        raise CapExceededError(
            f"requested {n} vertices, configured cap is {cfg.max_vertices}")


def _prop_label(p) -> str:
    if isinstance(p, FiniteForbidden):
        return "forbidden{" + "; ".join(repr(h) for h in p.forbidden) + "}"
    if isinstance(p, GeneratedBounded):
        return f"generated(bound={p.bound}, {len(p.generators)} generators)"
    if isinstance(p, ProductProperty):
        return "product(" + " * ".join(_prop_label(f) for f in p.factors) + ")"
    return type(p).__name__


# --- subcommands ------------------------------------------------------------

def cmd_member(args, cfg: CliConfig):
    p = _load_property(args.property)
    g = _load_graph(args.graph)
    res = p.member(g)
    if res:
        return 0, "member\n"
    from .props import ForbiddenWitness
    if isinstance(res.detail, ForbiddenWitness):
        image = "{" + ",".join(str(v) for v in sorted(res.detail.embedding.image())) + "}"
        return 1, f"non-member, witness: {res.detail.forbidden!r} at {image}\n"
    return 1, "non-member\n"


def cmd_partition(args, cfg: CliConfig):
    loaded = [_load_property(path) for path in args.property]
    if len(loaded) == 1 and isinstance(loaded[0], ProductProperty):
        factors = loaded[0].factors
    elif len(loaded) >= 2:
        factors = tuple(loaded)
    else:
        raise UsageError("partition needs a product property or two or "
                         "more -p factor files")
    g = _load_graph(args.graph)
    pa = partition_solve(g, factors)
    if pa is None:
        return 1, "no admissible partition\n"
    return 0, "blocks: " + _blocks_str(pa.parts) + "\n"


def cmd_dec(args, cfg: CliConfig):
    p = _load_property(args.property)
    g = _load_graph(args.graph)
    res = dec_number(g, p, _mode_for(args, p), cfg.k_max, cfg.member_cap)
    parts = str(res.decomposition) if res.decomposition is not None else "none"
    line = f"dec={res.value}, parts={parts}, confidence={res.confidence}\n"
    return (0 if res.value >= 1 else 1), line


def cmd_strict(args, cfg: CliConfig):
    p = _load_property(args.property)
    g = _load_graph(args.graph)
    if not p.member(g):
        return 1, "not strict (not a member)\n"
    if isinstance(p, FiniteForbidden):
        w = strictness_witness(g, p)
        if w is None:
            return 1, "not strict\n"
        rest = w.rest_to_graph()
        at = ", ".join(f"{a}->{b}" for a, b in sorted(rest.items()))
        return 0, (f"strict, witness: {w.forbidden!r} minus vertex "
                   f"{w.removed_vertex} at {at}\n")
    if is_strict(g, p, cfg.member_cap):
        return 0, "strict\n"
    return 1, "not strict\n"


def cmd_decompositions(args, cfg: CliConfig):
    if args.parts < 1:
        raise UsageError(f"--parts must be at least 1, got {args.parts}")
    p = _load_property(args.property)
    g = _load_graph(args.graph)
    found = all_decompositions(g, p, args.parts, _mode_for(args, p),
                               cfg.k_max, cfg.member_cap)
    if not found:
        return 1, "none\n"
    return 0, "".join(str(d) + "\n" for d in found)


def cmd_construct(args, cfg: CliConfig):
    p = _load_property(args.property)
    g = _load_graph(args.graph)
    d0 = Decomposition(_parse_parts(args.classes))
    if args.kind == "c1":
        ct = forcing_pair(g, d0, p)
    elif args.kind == "c2":
        if not args.target:
            raise UsageError("c2 needs --target with the decomposition to block")
        dt = Decomposition(_parse_parts(args.target))
        ct = decomposition_blocker(g, d0, dt, p)
    elif args.kind == "gstar":
        ct = aligning_super(g, d0, p, cfg.gstar_size_cap)
    else:
        ct = unique_super(g, d0, p, cfg.gstar_size_cap)
    return 0, format_copy_tracked(ct)


def cmd_factorize(args, cfg: CliConfig):
    for n, flag in ((args.bound, "--bound"), (args.forbidden_size, "--forbidden-size")):
        _check_vertex_count(n, flag, cfg)
    p = _load_property(args.property)
    verdict = irreducibility_test(p, args.bound, args.forbidden_size)
    bounds = dec_bounds(p, args.bound)
    lines = [f"dec bracket: [{bounds.lower}, {bounds.upper}]",
             f"equality bound: {args.bound}"]
    if verdict.status == IRREDUCIBLE_CERTIFIED:
        g = verdict.witness[0]
        lines.append(f"irreducible (certified): strict member on {g.n} "
                     f"vertices with maximal part count 1")
        return 0, "".join(s + "\n" for s in lines)
    if verdict.status == REDUCIBLE:
        for i, fac in enumerate(verdict.factorisations, start=1):
            lines.append(f"factorisation {i}: "
                         + " * ".join(_prop_label(f) for f in fac.factors))
        return 0, "".join(s + "\n" for s in lines)
    lines.append("unknown: no certificate either way")
    return 1, "".join(s + "\n" for s in lines)


def cmd_enumerate(args, cfg: CliConfig):
    _check_vertex_count(args.vertices, "--vertices", cfg)
    u = simple_universe() if args.universe is None \
        else _parse_universe_spec(args.universe, None)
    spec = EnumSpec(u, args.vertices, connected_only=args.connected)
    # the blocks of enumerate_hypergraphs' stream, formatted from the keys,
    # each distinct edge line once per command
    line = _EdgeLines().__getitem__
    return 0, "\n".join(_format_key(u, key, line) for key in _class_keys(spec))


_DOT_PALETTE = ("black", "red", "blue", "forestgreen", "orange",
                "purple", "brown", "cyan4")


def _dot_colour(u, colour: str) -> str:
    return _DOT_PALETTE[u.colours.index(colour) % len(_DOT_PALETTE)]


def cmd_export_dot(args, cfg: CliConfig):
    g = _load_graph(args.graph)
    parts = None
    if args.decomposition:
        try:
            data = json.loads(_read_text(args.decomposition))
            blocks = data["parts"]
            # bool is an int subclass, but true is no vertex
            if not isinstance(blocks, list) or not all(
                    isinstance(b, list) and b and all(type(v) is int for v in b)
                    for b in blocks):
                raise ValueError("parts must be nonempty lists of integer vertices")
            parts = tuple(frozenset(b) for b in blocks)
        except (KeyError, TypeError, ValueError) as exc:
            raise UsageError(f"bad decomposition file: {exc}")
    elif args.parts:
        parts = _parse_parts(args.parts)
    out = ["digraph hypergraph {"]
    if parts is not None:
        ground = frozenset().union(*parts) if parts else frozenset()
        if ground != frozenset(g.vertices) or \
                sum(len(p) for p in parts) != g.n:
            raise UsageError("parts do not partition the graph's vertices")
        for i, block in enumerate(sorted(parts, key=min)):
            out.append(f"  subgraph cluster_{i} {{")
            out.append(f'    label="part {i}";')
            for v in sorted(block):
                out.append(f'    v{v} [label="{v}"];')
            out.append("  }")
    else:
        for v in range(g.n):
            out.append(f'  v{v} [label="{v}"];')
    multi_colour = len(g.universe.colours) > 1
    for i, e in enumerate(g.sorted_edges()):
        attrs = [f'color="{_dot_colour(g.universe, e.colour)}"']
        if multi_colour:
            attrs.append(f'label="{e.colour}"')
        if len(e.vertices) == 2:
            a, b = e.vertices
            if e.kind is EdgeKind.UNORDERED:
                attrs.append("dir=none")
            out.append(f"  v{a} -> v{b} [{', '.join(attrs)}];")
        else:
            hub = f"h{i}"
            out.append(f'  {hub} [shape=point, label=""];')
            for slot, v in enumerate(e.vertices):
                slot_attrs = list(attrs)
                if e.kind is EdgeKind.ORDERED:
                    slot_attrs.append(f'label="{slot}"')
                    out.append(f"  v{v} -> {hub} [{', '.join(slot_attrs)}];")
                else:
                    slot_attrs.append("dir=none")
                    out.append(f"  v{v} -> {hub} [{', '.join(slot_attrs)}];")
    out.append("}")
    return 0, "".join(s + "\n" for s in out)


# --- wiring -----------------------------------------------------------------

def _graph_prop(sp):
    sp.add_argument("-g", "--graph", required=True,
                    help="hypergraph file, - for stdin")
    sp.add_argument("-p", "--property", required=True, help="property file")


def _mode_arg(sp):
    sp.add_argument("--mode", choices=("auto", "exact", "bounded"),
                    default="auto")


def _partition_args(sp):
    sp.add_argument("-g", "--graph", required=True,
                    help="hypergraph file, - for stdin")
    sp.add_argument("-p", "--property", required=True, action="append",
                    help="a product property file, or repeat for each factor")


def _dec_args(sp):
    _graph_prop(sp)
    _mode_arg(sp)


def _decompositions_args(sp):
    _dec_args(sp)
    sp.add_argument("--parts", type=int, required=True)


def _construct_args(sp):
    sp.add_argument("kind", choices=("c1", "c2", "gstar", "unique-super"))
    _graph_prop(sp)
    sp.add_argument("--classes", required=True,
                    help="reference partition, e.g. 0,2|1,3")
    sp.add_argument("--target", help="decomposition to block (c2 only)")


def _factorize_args(sp):
    sp.add_argument("-p", "--property", required=True)
    sp.add_argument("--bound", type=int, required=True,
                    help="equality is checked on all graphs up to this size")
    sp.add_argument("--forbidden-size", type=int, default=2,
                    help="largest forbidden graph in candidate factors")


def _enumerate_args(sp):
    sp.add_argument("--vertices", "--max-vertices", dest="vertices",
                    type=int, required=True)
    sp.add_argument("--connected", action="store_true")
    sp.add_argument("--universe",
                    help='e.g. "kinds=UNORDERED arities=2 colours=e"')


def _export_dot_args(sp):
    sp.add_argument("-g", "--graph", required=True)
    sp.add_argument("-d", "--decomposition",
                    help='JSON file {"parts": [[0,2],[1,3]]}')
    sp.add_argument("--parts", help="inline partition, e.g. 0,2|1,3")


# name, help line, handler, and the function that adds the arguments
_COMMANDS = (
    ("member", "membership with a witness on failure", cmd_member, _graph_prop),
    ("partition", "first admissible product partition", cmd_partition, _partition_args),
    ("dec", "maximum part count with one maximizer", cmd_dec, _dec_args),
    ("strict", "does some one-vertex extension leave the property?", cmd_strict,
     _graph_prop),
    ("decompositions", "all decompositions with a given part count", cmd_decompositions,
     _decompositions_args),
    ("construct", "tracked-copy constructions", cmd_construct, _construct_args),
    ("factorize", "bounded factorization search", cmd_factorize, _factorize_args),
    ("enumerate", "all graphs up to a size, one canonical representative each",
     cmd_enumerate, _enumerate_args),
    ("export-dot", "GraphViz rendering", cmd_export_dot, _export_dot_args),
)


class _Subcommand:
    """What add_subparsers makes for each subcommand: the keyword
    arguments of its ArgumentParser, which is built, with its arguments
    and its handler as the fn default, only when argparse dispatches to
    it (argparse asks a subcommand's parser for parse_known_args alone)."""

    def __init__(self, fn, arguments, **kwargs):
        self._fn, self._arguments, self._kwargs = fn, arguments, kwargs

    def parse_known_args(self, args=None, namespace=None):
        sp = argparse.ArgumentParser(**self._kwargs)
        self._arguments(sp)
        sp.set_defaults(fn=self._fn)
        return sp.parse_known_args(args, namespace)


def _build_parser() -> argparse.ArgumentParser:
    """The top-level parser.  Each subcommand in _COMMANDS is declared
    with its name and help line, which are all that the top-level help,
    usage and errors show; its own parser is built only for the
    subcommand that runs (_Subcommand), so a command builds two parsers
    and top-level --help one.  Every help text, usage line, error and
    exit code is that of building every subcommand's parser up front."""
    ap = argparse.ArgumentParser(
        prog="hgfactor",
        description="membership, decomposition and factorization for "
                    "coloured directed hypergraph properties")
    ap.add_argument("--config", help="key=value configuration file")
    ap.add_argument("--workers", type=int,
                    help="accepted and ignored (at least 1); searches run serially")
    ap.add_argument("--output", help="write the report here instead of stdout")
    sub = ap.add_subparsers(dest="command", required=True, parser_class=_Subcommand)
    for name, help_line, fn, arguments in _COMMANDS:
        sub.add_parser(name, help=help_line, fn=fn, arguments=arguments)
    return ap


def run(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.workers is not None:
            if args.workers < 1:
                raise UsageError("--workers must be positive")
            cfg = replace(cfg, workers=args.workers)
        code, text = args.fn(args, cfg)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CapExceededError, BoundExceededError) as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 3
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.output}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
