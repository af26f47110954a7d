"""Command line behaviour: verbs, exit codes, config layering, reports."""

import argparse
import io
import json
import time

import pytest

from hgfactor import (
    EdgeKind,
    EdgeObject,
    EnumSpec,
    GeneratedBounded,
    Hypergraph,
    ProductProperty,
    Universe,
    aligning_super,
    all_decompositions,
    decomposition_blocker,
    enumerate_hypergraphs,
    forbidden_property,
    forcing_pair,
    format_copy_tracked,
    format_hypergraph,
    save_property,
    simple_graph,
    unique_super,
)
from hgfactor import cli as cli_module
from hgfactor.cli import CliConfig, load_config, parse_config_text, run
from hgfactor.core import FormatError, _format_universe
from hgfactor.decomp import EXACT, Decomposition
from test_decomp import _kernel_universes


@pytest.fixture(autouse=True)
def _no_ambient_config(monkeypatch):
    monkeypatch.delenv("HGFACTOR_CONFIG", raising=False)


@pytest.fixture
def files(tmp_path, g, props):
    """Fixture files on disk; attribute name -> path string."""
    class F:
        dir = tmp_path

    def graph(name, hg):
        p = tmp_path / (name + ".hg")
        p.write_text(format_hypergraph(hg), encoding="utf-8")
        return str(p)

    def prop(name, pr):
        p = tmp_path / (name + ".prop")
        save_property(pr, str(p), name)
        return str(p)

    f = F()
    f.k1 = graph("k1", g.k1)
    f.k2 = graph("k2", g.k2)
    f.k3 = graph("k3", g.k3)
    f.c4 = graph("c4", g.c4)
    f.two_k2 = graph("two_k2", g.two_k2)
    f.edgeless = prop("edgeless", props.edgeless)
    f.trifree = prop("trifree", props.trifree)
    f.bip = prop("bip", props.bip)
    f.two_colour = prop("two_colour", props.two_colour)
    return f


def cli(capsys, *argv):
    code = run(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


# --- config -----------------------------------------------------------------

def test_config_defaults():
    cfg = CliConfig()
    assert (cfg.max_vertices, cfg.member_cap, cfg.gstar_size_cap) == \
        (7, 10**6, 10**4)
    assert (cfg.k_max, cfg.workers) == (3, 1)
    assert not hasattr(cfg, "format")


def test_parse_config_text_happy():
    text = "# comment\n\nmax_vertices = 5\nk_max=2\n"
    assert parse_config_text(text) == {"max_vertices": 5, "k_max": 2}


def test_parse_config_text_errors():
    with pytest.raises(FormatError) as ei:
        parse_config_text("max_vertices\n")
    assert ei.value.line == 1
    with pytest.raises(FormatError) as ei:
        parse_config_text("\nworkers=zero\n")
    assert ei.value.line == 2 and "integer" in str(ei.value)
    with pytest.raises(FormatError, match="positive"):
        parse_config_text("k_max=0\n")
    for value in ("text", "dot"):
        with pytest.raises(FormatError, match="unknown configuration key 'format'"):
            parse_config_text(f"format={value}\n")
    with pytest.raises(FormatError, match="unknown configuration key"):
        parse_config_text("colour=blue\n")


def test_load_config_layering(tmp_path, monkeypatch):
    env_file = tmp_path / "env.cfg"
    env_file.write_text("max_vertices=3\nk_max=2\n", encoding="utf-8")
    explicit = tmp_path / "cli.cfg"
    explicit.write_text("max_vertices=5\n", encoding="utf-8")
    monkeypatch.setenv("HGFACTOR_CONFIG", str(env_file))
    cfg = load_config(str(explicit))
    # explicit file wins on the shared key, env survives elsewhere
    assert cfg.max_vertices == 5
    assert cfg.k_max == 2
    assert cfg.workers == 1


def test_bad_config_file_exits_2(tmp_path, capsys, files):
    bad = tmp_path / "bad.cfg"
    for text, message in [("max_vertices=0\n", "positive"),
                          ("format=text\n", "unknown configuration key 'format'"),
                          ("join_edge_cap=5\n",
                           "unknown configuration key 'join_edge_cap'")]:
        bad.write_text(text, encoding="utf-8")
        code, out, err = cli(capsys, "--config", str(bad),
                             "member", "-g", files.k2, "-p", files.trifree)
        assert (code, out) == (2, "")
        assert "line 1" in err and message in err


def test_member_cap_key_caps_join_members(tmp_path, capsys, files, g, u, props):
    # k2 joined with one vertex has 2 crossing edges, so 2^2 members.
    # Under edgeless x complete graphs, whose second factor is not closed
    # under deleting an edge, they are streamed and the cap refuses them;
    # edgeless*edgeless is closed, so its densest member decides alone.
    cfg = tmp_path / "cap.cfg"
    cfg.write_text("member_cap=1\n", encoding="utf-8")
    open_product = tmp_path / "ecliques.prop"
    save_property(ProductProperty((props.edgeless, forbidden_property(u, [g.e2]))),
                  str(open_product), "ecliques")
    code, out, err = cli(capsys, "--config", str(cfg),
                         "strict", "-g", files.k2, "-p", str(open_product))
    assert (code, out) == (3, "")
    assert err == "cap exceeded: one-vertex join has 2^2 members, over the cap\n"
    code, out, err = cli(capsys, "--config", str(cfg),
                         "strict", "-g", files.k2, "-p", files.two_colour)
    assert (code, out, err) == (0, "strict\n", "")


def test_workers_flag_validated(capsys, files):
    code, out, err = cli(capsys, "--workers", "0",
                         "member", "-g", files.k2, "-p", files.trifree)
    assert code == 2 and "positive" in err


@pytest.mark.parametrize("argv, flag", [
    (["enumerate", "--vertices", "-1"], "--vertices"),
    (["factorize", "-p", "{bip}", "--bound", "-1"], "--bound"),
    (["factorize", "-p", "{bip}", "--bound", "3", "--forbidden-size", "-1"],
     "--forbidden-size"),
    (["decompositions", "-g", "{c4}", "-p", "{bip}", "--parts", "0"], "--parts"),
], ids=["vertices", "bound", "forbidden-size", "parts"])
def test_out_of_range_integer_is_usage_error(capsys, files, argv, flag):
    argv = [a.format(bip=files.bip, c4=files.c4) for a in argv]
    code, out, err = cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {flag} must be at least ")
    assert err.count("\n") == 1


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as ei:
        run([])
    assert ei.value.code == 2


# --- parsers ------------------------------------------------------------------

SUBCOMMANDS = [
    ("member", "membership with a witness on failure"),
    ("partition", "first admissible product partition"),
    ("dec", "maximum part count with one maximizer"),
    ("strict", "does some one-vertex extension leave the property?"),
    ("decompositions", "all decompositions with a given part count"),
    ("construct", "tracked-copy constructions"),
    ("factorize", "bounded factorization search"),
    ("enumerate", "all graphs up to a size, one canonical representative each"),
    ("export-dot", "GraphViz rendering"),
]


@pytest.fixture
def parsers_built(monkeypatch):
    """The prog of every argparse.ArgumentParser constructed, in order."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    return built


def test_a_command_builds_only_its_own_parser(capsys, files, parsers_built):
    # machine-independent work count: the top-level parser and the one
    # of the subcommand that runs, where building every subcommand's
    # parser up front makes 10
    code, out, err = cli(capsys, "factorize", "-p", files.bip, "--bound", "3")
    assert code == 0
    assert parsers_built == ["hgfactor", "hgfactor factorize"]
    del parsers_built[:]
    code, out, err = cli(capsys, "dec", "-g", files.c4, "-p", files.trifree)
    assert (code, out) == (0, "dec=2, parts={0,2}|{1,3}, confidence=exact\n")
    assert parsers_built == ["hgfactor", "hgfactor dec"]
    del parsers_built[:]
    with pytest.raises(SystemExit) as ei:
        run(["--help"])
    assert ei.value.code == 0
    assert parsers_built == ["hgfactor"]


def test_top_level_help_lists_every_subcommand_in_table_order(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")  # one line per subcommand
    with pytest.raises(SystemExit) as ei:
        run(["--help"])
    assert ei.value.code == 0
    out = capsys.readouterr().out
    assert "{" + ",".join(name for name, _ in SUBCOMMANDS) + "}" in out
    listed = [tuple(line.split(None, 1)) for line in out.splitlines()
              if line.startswith("    ") and not line.startswith("     ")]
    assert listed == SUBCOMMANDS
    assert [(name, help_line) for name, help_line, _, _ in cli_module._COMMANDS] == SUBCOMMANDS


@pytest.mark.parametrize("name", [name for name, _ in SUBCOMMANDS])
def test_every_subcommand_help_exits_0(capsys, name):
    with pytest.raises(SystemExit) as ei:
        run([name, "--help"])
    assert ei.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: hgfactor {name} [-h]")


@pytest.mark.parametrize("argv", [
    [],
    ["bogus"],
    ["factorize", "-p", "X"],
    ["--workers", "x", "factorize", "-p", "X", "--bound", "3"],
], ids=["no-command", "unknown-command", "factorize-without-bound", "workers-not-int"])
def test_argument_errors_exit_2_with_usage(capsys, argv):
    with pytest.raises(SystemExit) as ei:
        run(argv)
    assert ei.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: hgfactor")
    assert "error: " in err


# --- member / partition -----------------------------------------------------

def test_member_yes(capsys, files):
    code, out, err = cli(capsys, "member", "-g", files.c4, "-p", files.trifree)
    assert (code, out, err) == (0, "member\n", "")


def test_member_witness(capsys, files, props):
    code, out, err = cli(capsys, "member", "-g", files.k3, "-p", files.trifree)
    assert code == 1
    triangle = props.trifree.forbidden[0]
    assert out == f"non-member, witness: {triangle!r} at {{0,1,2}}\n"


def test_member_plain_refusal_for_products(capsys, files):
    code, out, err = cli(capsys, "member", "-g", files.k3, "-p", files.two_colour)
    assert (code, out) == (1, "non-member\n")


def test_member_graph_from_stdin(capsys, files, g, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(format_hypergraph(g.c4)))
    code, out, err = cli(capsys, "member", "-g", "-", "-p", files.trifree)
    assert (code, out) == (0, "member\n")


def test_property_from_stdin_rejected(capsys, files):
    code, out, err = cli(capsys, "member", "-g", files.k2, "-p", "-")
    assert code == 2 and "properties must come from files" in err


def test_partition_product_file(capsys, files):
    code, out, err = cli(capsys, "partition", "-g", files.c4,
                         "-p", files.two_colour)
    assert (code, out) == (0, "blocks: {0,2}|{1,3}\n")


def test_partition_repeated_factors(capsys, files):
    code, out, err = cli(capsys, "partition", "-g", files.c4,
                         "-p", files.edgeless, "-p", files.edgeless)
    assert (code, out) == (0, "blocks: {0,2}|{1,3}\n")


def test_partition_single_plain_factor_is_usage_error(capsys, files):
    code, out, err = cli(capsys, "partition", "-g", files.c4,
                         "-p", files.edgeless)
    assert code == 2 and "two or more" in err


def test_partition_no_solution(capsys, files):
    code, out, err = cli(capsys, "partition", "-g", files.k3,
                         "-p", files.two_colour)
    assert (code, out) == (1, "no admissible partition\n")


def test_partition_beyond_generated_bound_exits_3(capsys, files, g, u, tmp_path):
    # two edgeless factors known up to 2 vertices: 4 isolated vertices
    # split within the bounds, 5 cannot be decided
    q = GeneratedBounded(u, (g.e2,), 2)
    prod = str(tmp_path / "pairs.prop")
    save_property(ProductProperty((q, q)), prod, "pairs")
    for n, want in ((4, 0), (5, 3)):
        path = tmp_path / f"e{n}.hg"
        path.write_text(format_hypergraph(simple_graph(n, [])), encoding="utf-8")
        for verb in ("member", "partition"):
            code, out, err = cli(capsys, verb, "-g", str(path), "-p", prod)
            assert code == want
            assert ("bound 2" in err) == (want == 3)


# --- dec / strict / decompositions -------------------------------------------

def test_dec_golden_line(capsys, files):
    code, out, err = cli(capsys, "dec", "-g", files.c4, "-p", files.trifree)
    assert (code, out) == (0, "dec=2, parts={0,2}|{1,3}, confidence=exact\n")


def test_dec_zero_exits_1(capsys, files):
    code, out, err = cli(capsys, "dec", "-g", files.k3, "-p", files.trifree)
    assert (code, out) == (1, "dec=0, parts=none, confidence=exact\n")


def test_dec_bounded_mode_label(capsys, files):
    code, out, err = cli(capsys, "dec", "-g", files.c4, "-p", files.trifree,
                         "--mode", "bounded")
    assert code == 0
    assert out == "dec=2, parts={0,2}|{1,3}, confidence=bounded k_max=3\n"


def test_strict_witness_line(capsys, files):
    code, out, err = cli(capsys, "strict", "-g", files.k2, "-p", files.trifree)
    assert code == 0
    assert out.startswith("strict, witness: ")
    assert "minus vertex" in out and "->" in out


def test_strict_refusals(capsys, files):
    code, out, err = cli(capsys, "strict", "-g", files.k3, "-p", files.trifree)
    assert (code, out) == (1, "not strict (not a member)\n")
    code, out, err = cli(capsys, "strict", "-g", files.k1, "-p", files.trifree)
    assert (code, out) == (1, "not strict\n")


def test_strict_product_path(capsys, files):
    code, out, err = cli(capsys, "strict", "-g", files.k2, "-p", files.two_colour)
    assert (code, out) == (0, "strict\n")


def test_decompositions_lists_all(capsys, files, g, props):
    code, out, err = cli(capsys, "decompositions", "-g", files.two_k2,
                         "-p", files.trifree, "--parts", "2")
    assert code == 0
    expect = all_decompositions(g.two_k2, props.trifree, 2, EXACT)
    assert out == "".join(str(d) + "\n" for d in expect)
    assert len(out.splitlines()) == 2


def test_decompositions_none(capsys, files):
    code, out, err = cli(capsys, "decompositions", "-g", files.k3,
                         "-p", files.trifree, "--parts", "2")
    assert (code, out) == (1, "none\n")


# --- construct ----------------------------------------------------------------

def test_construct_c1_matches_library(capsys, files, g, props):
    code, out, err = cli(capsys, "construct", "c1", "-g", files.k2,
                         "-p", files.trifree, "--classes", "0|1")
    assert code == 0
    ct = forcing_pair(g.k2, Decomposition((frozenset({0}), frozenset({1}))),
                      props.trifree)
    assert out == format_copy_tracked(ct)


def test_construct_c2_needs_target(capsys, files):
    code, out, err = cli(capsys, "construct", "c2", "-g", files.two_k2,
                         "-p", files.trifree, "--classes", "0,2|1,3")
    assert code == 2 and "--target" in err


def test_construct_c2_matches_library(capsys, files, g, props):
    code, out, err = cli(capsys, "construct", "c2", "-g", files.two_k2,
                         "-p", files.trifree, "--classes", "0,2|1,3",
                         "--target", "0,3|1,2")
    assert code == 0
    d0 = Decomposition((frozenset({0, 2}), frozenset({1, 3})))
    dt = Decomposition((frozenset({0, 3}), frozenset({1, 2})))
    ct = decomposition_blocker(g.two_k2, d0, dt, props.trifree)
    assert out == format_copy_tracked(ct)


def test_construct_gstar_and_unique_super(capsys, files, g, props):
    d0 = Decomposition((frozenset({0, 2}), frozenset({1, 3})))
    code, out, err = cli(capsys, "construct", "gstar", "-g", files.c4,
                         "-p", files.trifree, "--classes", "{0,2}|{1,3}")
    assert code == 0
    assert out == format_copy_tracked(
        aligning_super(g.c4, d0, props.trifree, 10**4))
    code, out, err = cli(capsys, "construct", "unique-super", "-g", files.c4,
                         "-p", files.trifree, "--classes", "0,2|1,3")
    assert code == 0
    assert out == format_copy_tracked(
        unique_super(g.c4, d0, props.trifree, 10**4))


def test_construct_bad_classes(capsys, files):
    code, out, err = cli(capsys, "construct", "c1", "-g", files.k2,
                         "-p", files.trifree, "--classes", "0,x|1")
    assert code == 2 and "bad vertex list" in err


@pytest.mark.parametrize("flags", [
    ["c1", "--classes", "0,2|2,3"],
    ["c1", "--classes", "{0,2}|{1,2,3}"],
    ["c2", "--classes", "0,2|1,3", "--target", "0,1|1,2,3"],
])
def test_construct_rejects_a_vertex_in_two_blocks(capsys, files, flags):
    # overlapping blocks are a usage error (exit 2), not a negative verdict
    code, out, err = cli(capsys, "construct", flags[0], "-g", files.two_k2,
                         "-p", files.trifree, *flags[1:])
    assert (code, out) == (2, "")
    assert err.startswith("error: vertex ") and err.endswith(" is in two blocks\n")
    assert err.count("\n") == 1


# --- factorize ----------------------------------------------------------------

def test_factorize_reducible_report(capsys, files, props):
    code, out, err = cli(capsys, "factorize", "-p", files.bip, "--bound", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "dec bracket: [1, 2]"
    assert lines[1] == "equality bound: 5"
    edge = props.edgeless.forbidden[0]
    assert lines[2] == (f"factorisation 1: forbidden{{{edge!r}}}"
                        f" * forbidden{{{edge!r}}}")
    assert len(lines) == 3


def test_factorize_irreducible_report(capsys, files):
    code, out, err = cli(capsys, "factorize", "-p", files.trifree,
                         "--bound", "5")
    assert code == 0
    assert out == ("dec bracket: [1, 1]\n"
                   "equality bound: 5\n"
                   "irreducible (certified): strict member on 5 vertices "
                   "with maximal part count 1\n")


def test_factorize_unknown_exits_1(capsys, files):
    code, out, err = cli(capsys, "factorize", "-p", files.two_colour,
                         "--bound", "5", "--forbidden-size", "1")
    assert code == 1
    assert out.splitlines()[-1] == "unknown: no certificate either way"


def test_factorize_directed_product_report(capsys, tmp_path):
    du = Universe(frozenset({EdgeKind.ORDERED}), frozenset({2}), ("e",))
    arc = EdgeObject(EdgeKind.ORDERED, (0, 1), "e")
    back = EdgeObject(EdgeKind.ORDERED, (1, 0), "e")
    edgeless = forbidden_property(du, [Hypergraph(du, 2, frozenset({arc})),
                                       Hypergraph(du, 2, frozenset({arc, back}))])
    path = str(tmp_path / "dir_two_colour.prop")
    save_property(ProductProperty((edgeless, edgeless)), path, "dir_two_colour")
    code, out, err = cli(capsys, "factorize", "-p", path, "--bound", "4")
    assert code == 0
    factor = "forbidden{H(n=2; O(0,1;e)); H(n=2; O(0,1;e) O(1,0;e))}"
    assert out == ("dec bracket: [2, 2]\n"
                   "equality bound: 4\n"
                   f"factorisation 1: {factor} * {factor}\n")


@pytest.mark.parametrize("bound, forbidden_size", [("5", "2"), ("3", "5")])
def test_factorize_cap_is_configurable(capsys, files, tmp_path, bound,
                                       forbidden_size):
    cfgf = tmp_path / "c.cfg"
    cfgf.write_text("max_vertices=3\n", encoding="utf-8")
    code, out, err = cli(capsys, "--config", str(cfgf), "factorize",
                         "-p", files.bip, "--bound", bound,
                         "--forbidden-size", forbidden_size)
    assert code == 3 and out == ""
    assert err == "cap exceeded: requested 5 vertices, configured cap is 3\n"


def test_factorize_candidate_subsets_are_capped(capsys, files):
    # 30 connected simple graphs on 2..5 vertices give 2^30 candidate
    # forbidden sets, far more than the member cap
    start = time.monotonic()
    code, out, err = cli(capsys, "factorize", "-p", files.bip, "--bound", "3",
                         "--forbidden-size", "5")
    assert time.monotonic() - start < 10
    assert (code, out) == (3, "")
    assert err == ("cap exceeded: 30 connected graphs give 2^30 candidate "
                   "forbidden sets, over the cap\n")


def test_factorize_workers_byte_identical(capsys, files):
    _, out1, _ = cli(capsys, "--workers", "1", "factorize",
                     "-p", files.bip, "--bound", "5")
    _, out8, _ = cli(capsys, "--workers", "8", "factorize",
                     "-p", files.bip, "--bound", "5")
    assert out1 == out8


# --- enumerate / export-dot ----------------------------------------------------

def test_enumerate_counts(capsys):
    code, out, err = cli(capsys, "enumerate", "--vertices", "4")
    assert code == 0
    assert out.count("hypergraph v1") == 1 + 1 + 2 + 4 + 11
    code, out, err = cli(capsys, "enumerate", "--vertices", "4", "--connected")
    assert out.count("hypergraph v1") == 1 + 1 + 2 + 6


@pytest.mark.parametrize("connected", [False, True], ids=["all", "connected"])
@pytest.mark.parametrize("name", ["simple", "ORDERED-2", "UNORDERED-3", "2-colour", "mixed"])
def test_enumerate_prints_the_format_stream(capsys, u, name, connected):
    # the command formats each class from its canonical key, and must
    # print the bytes of format_hypergraph over enumerate_hypergraphs'
    # stream, a blank line between blocks, with --connected as without
    _, uu, _ = next(c for c in _kernel_universes(u) if c[0] == name)
    top = {"simple": 5, "UNORDERED-3": 5, "mixed": 2}.get(name, 4)
    argv = ["enumerate", "--vertices", str(top), "--universe", _format_universe(uu)]
    code, out, err = cli(capsys, *argv, *(["--connected"] if connected else []))
    stream = enumerate_hypergraphs(EnumSpec(uu, top, connected_only=connected))
    assert (code, out, err) == (0, "\n".join(map(format_hypergraph, stream)), "")
    assert out.count("hypergraph v1") > top


def test_enumerate_alias_and_universe(capsys):
    code, out, err = cli(capsys, "enumerate", "--max-vertices", "2",
                         "--universe", "kinds=ORDERED arities=2 colours=e")
    assert code == 0
    # K0, K1, then empty / one arc / both arcs on two vertices
    assert out.count("hypergraph v1") == 5


def test_enumerate_over_cap_exits_3(capsys):
    code, out, err = cli(capsys, "enumerate", "--vertices", "8")
    assert code == 3
    assert err.startswith("cap exceeded:")


def test_enumerate_cap_is_configurable(capsys, tmp_path):
    cfgf = tmp_path / "c.cfg"
    cfgf.write_text("max_vertices=3\n", encoding="utf-8")
    code, out, err = cli(capsys, "--config", str(cfgf),
                         "enumerate", "--vertices", "4")
    assert code == 3


def test_export_dot_inline_parts(capsys, files):
    code, out, err = cli(capsys, "export-dot", "-g", files.c4,
                         "--parts", "0,2|1,3")
    assert code == 0
    assert out.startswith("digraph hypergraph {")
    assert "subgraph cluster_0" in out and 'label="part 0"' in out
    assert "dir=none" in out
    assert out.rstrip().endswith("}")


def test_export_dot_json_matches_inline(capsys, files, tmp_path):
    dfile = tmp_path / "dec.json"
    dfile.write_text(json.dumps({"parts": [[0, 2], [1, 3]]}), encoding="utf-8")
    _, from_json, _ = cli(capsys, "export-dot", "-g", files.c4,
                          "-d", str(dfile))
    _, inline, _ = cli(capsys, "export-dot", "-g", files.c4,
                       "--parts", "0,2|1,3")
    assert from_json == inline


@pytest.mark.parametrize("body", [
    '{"parts": ["02", "13"]}',        # strings are no vertex lists
    '{"parts": [[0, 2.9], [1, 3]]}',  # nor is a float a vertex
    '{"parts": [[0, 2], [true, 3]]}',  # nor a boolean
    '{"parts": [[0, 1, 2, 3], []]}',
    '{"parts": {"0": [0, 2]}}',
    '{"blocks": [[0, 2], [1, 3]]}',
    '[[0, 2], [1, 3]]',
    '{"parts": [[0, 2], [1, 3]',
])
def test_export_dot_json_takes_only_lists_of_integers(capsys, files, tmp_path, body):
    dfile = tmp_path / "dec.json"
    dfile.write_text(body, encoding="utf-8")
    code, out, err = cli(capsys, "export-dot", "-g", files.c4, "-d", str(dfile))
    assert (code, out) == (2, "")
    assert err.startswith("error: bad decomposition file: ") and err.count("\n") == 1


def test_export_dot_partition_must_cover(capsys, files):
    code, out, err = cli(capsys, "export-dot", "-g", files.c4,
                         "--parts", "0,1|2")
    assert code == 2 and "do not partition" in err


def test_export_dot_plain(capsys, files):
    code, out, err = cli(capsys, "export-dot", "-g", files.k2)
    assert code == 0
    assert "cluster" not in out
    assert "v0 -> v1 [" in out


# --- error surfaces -------------------------------------------------------------

def test_bad_graph_file_reports_line(capsys, files, tmp_path):
    bad = tmp_path / "bad.hg"
    bad.write_text("not a header\n", encoding="utf-8")
    code, out, err = cli(capsys, "member", "-g", str(bad), "-p", files.trifree)
    assert code == 2
    assert "line 1" in err


def test_missing_graph_file(capsys, files):
    code, out, err = cli(capsys, "member", "-g", str(files.dir / "nope.hg"),
                         "-p", files.trifree)
    assert code == 2 and "cannot read" in err


def test_output_in_a_missing_directory_exits_2(capsys, files, tmp_path):
    target = tmp_path / "missing" / "report.txt"
    code, out, err = cli(capsys, "--output", str(target),
                         "dec", "-g", files.c4, "-p", files.trifree)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {target}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("which", ["graph", "property", "factor", "config"])
def test_input_that_is_not_utf8_exits_2(capsys, files, tmp_path, which):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes("hypergraph v1 \u00e9\n".encode("latin-1"))
    argv = ["member", "-g", files.k2, "-p", files.trifree]
    if which == "graph":
        argv[2] = str(bad)
    elif which == "property":
        argv[4] = str(bad)
    elif which == "factor":
        prod = tmp_path / "prod.prop"
        prod.write_text(files.dir.joinpath("two_colour.prop").read_text(encoding="utf-8")
                        .replace("two_colour.factor1.prop", bad.name), encoding="utf-8")
        argv[4] = str(prod)
    else:
        argv = ["--config", str(bad)] + argv
    code, out, err = cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "can't decode byte 0xe9" in err
    assert ("factor file" in err) == (which == "factor")
    assert err.count("\n") == 1


def test_command_line_universe_error_names_no_line(capsys):
    code, out, err = cli(capsys, "enumerate", "--vertices", "2",
                         "--universe", "kinds=FOO arities=2 colours=e")
    assert (code, out) == (2, "")
    assert err.startswith("error: bad universe: ")
    assert "line" not in err


@pytest.mark.parametrize("spec", ["", " "], ids=["empty", "blank"])
def test_empty_universe_spec_is_a_usage_error(capsys, spec):
    # an empty spec is malformed, not the simple universe's default
    code, out, err = cli(capsys, "enumerate", "--vertices", "3", "--universe", spec)
    assert (code, out) == (2, "")
    assert err == "error: universe needs exactly kinds=, arities= and colours=\n"


def test_output_flag_writes_file(capsys, files, tmp_path):
    target = tmp_path / "report.txt"
    code, out, err = cli(capsys, "--output", str(target),
                         "dec", "-g", files.c4, "-p", files.trifree)
    assert (code, out) == (0, "")
    assert target.read_text(encoding="utf-8") == \
        "dec=2, parts={0,2}|{1,3}, confidence=exact\n"
