"""Command-line interface: file formats, subcommands, exit codes."""

import ast
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ringscope.cli import (
    corpus_names,
    load_corpus_text,
    load_ring,
    main,
    parse_module_file,
    parse_ring_file,
    run_command,
)
from ringscope.errors import InputError, TheoremViolationError
from ringscope.lattice import are_isomorphic, build_lattice
from ringscope.ring import ring_from_spec

from conftest import corpus


def run(argv):
    out = io.StringIO()
    code = run_command(argv, out=out)
    return code, out.getvalue()


def test_corpus_is_bundled():
    names = corpus_names()
    assert names == sorted(["z8", "z4xf2", "t2f2", "m2f2", "quiver_f2",
                            "f2xy_j2", "f2xy_x2y2", "m2z4"])
    for name in names:
        ring = load_ring(name)
        assert ring.order() >= 2


def test_ring_from_spec_reads_corpus_documents():
    """The library reads a ring file's document as the CLI does."""
    for name in corpus_names():
        ring = ring_from_spec(json.loads(load_corpus_text(name)))
        again = load_ring(name)
        assert (ring.orders, ring.mul, ring.one, ring.label) == \
            (again.orders, again.mul, again.one, again.label)


def test_parse_ring_file_errors():
    with pytest.raises(InputError):
        parse_ring_file("not json")
    with pytest.raises(InputError):
        parse_ring_file(json.dumps({"label": "no constructor"}))
    with pytest.raises(InputError):
        parse_ring_file(json.dumps({"construct": {"type": "wat"}}))
    with pytest.raises(InputError):
        parse_ring_file(json.dumps({"construct": {"type": "zmod"}}))


def test_module_file_parsing():
    ring = corpus("z8")
    assert parse_module_file('{"type": "regular"}', ring).order() == 8
    cyc = parse_module_file(
        '{"type": "cyclic", "ideal_gens": [[4]]}', ring)
    assert cyc.order() == 4
    quo = parse_module_file(
        '{"type": "quotient_of_free", "rank": 2, "relations": [[2, 0]]}',
        ring)
    assert quo.order() == 16
    ds = parse_module_file(
        '{"type": "direct_sum", "summands": ['
        '{"type": "regular"}, {"type": "cyclic", "ideal_gens": [[4]]}]}',
        ring)
    assert ds.order() == 32
    nested = parse_module_file(
        '{"type": "direct_sum", "summands": [{"type": "regular"}, '
        '{"type": "direct_sum", "summands": ['
        '{"type": "cyclic", "ideal_gens": [[4]]}, '
        '{"type": "cyclic", "ideal_gens": [[2]]}]}]}', ring)
    assert nested.orders == (8, 4, 2)
    with pytest.raises(InputError):
        parse_module_file('{"type": "wat"}', ring)
    t2 = corpus("t2f2")
    with pytest.raises(InputError):
        # E11 span is not a right ideal
        parse_module_file('{"type": "cyclic", "ideal_gens": [[1, 0, 0]]}', t2)


def test_ring_show():
    code, text = run(["ring", "show", "z8"])
    assert code == 0
    assert "order: 8" in text


def test_classify_text_and_json():
    code, text = run(["classify", "z8"])
    assert code == 0
    assert "qf: True" in text and "super_qf: True" in text
    code, text = run(["classify", "z8", "--json"])
    assert code == 0
    doc = json.loads(text)
    assert doc["chain_ring"] is True and doc["profile_nodes"] == 3


def test_profile_json_reconstructs_lattice():
    code, text = run(["profile", "z8", "--kind", "i", "--json"])
    assert code == 0
    doc = json.loads(text)
    assert doc["kind"] == "i"
    assert len(doc["nodes"]) == 3
    assert all(n["witness"] is not None for n in doc["nodes"])
    lat = build_lattice(list(range(len(doc["nodes"]))),
                        [tuple(p) for p in doc["order_pairs"]])
    chain3 = build_lattice([0, 1, 2], leq=lambda a, b: a <= b)
    assert are_isomorphic(lat, chain3)[0]
    assert doc["flags"]["is_chain"] is True


def test_profile_dot_output(tmp_path):
    dot = tmp_path / "z8.dot"
    code, text = run(["profile", "z8", "--kind", "p", "--dot", str(dot)])
    assert code == 0
    body = dot.read_text()
    assert body.startswith("digraph")
    assert body.count("->") == 2  # Hasse diagram of a 3-chain


def test_domains_command(tmp_path):
    mod = tmp_path / "m.module"
    mod.write_text('{"type": "cyclic", "ideal_gens": [[2]]}')
    code, text = run(["domains", "--ring", "z8", "--module", str(mod),
                      "--kind", "i"])
    assert code == 0
    assert "2 classes" in text


def test_filters_command():
    code, text = run(["filters", "z8"])
    assert code == 0
    assert "4 over 4 right ideals" in text
    code, text = run(["filters", "z8", "--above-maximal"])
    assert code == 0
    assert "3" in text.splitlines()[0]


def test_modules_command():
    code, text = run(["modules", "z8", "--max-rank", "1", "--max-order", "8"])
    assert code == 0
    assert text.startswith("4 isomorphism classes")


def test_verify_command_exit_codes(monkeypatch):
    code, text = run(["verify", "z8"])
    assert code == 0
    assert "all checks passed" in text

    # a failing report must flip the exit code to 1
    import ringscope.cli as cli_mod

    class FakeReport:
        def lines(self):
            return iter(["V1   fail  forced"])

        def ok(self):
            return False

        failed = [{"id": "V1"}]

    monkeypatch.setattr(cli_mod, "verify_suite",
                        lambda *a, **kw: FakeReport())
    code, _ = run(["verify", "z8"])
    assert code == 1


def test_invalid_input_exit_code(tmp_path):
    bad = tmp_path / "bad.ring"
    bad.write_text("{broken json")
    code, _ = run(["ring", "show", str(bad)])
    assert code == 2
    code, _ = run(["ring", "show", "no_such_corpus_ring"])
    assert code == 2


def test_internal_error_exit_code(monkeypatch, capsys):
    """A failed cross-check is a bug, not bad input: exit 4."""
    import ringscope.cli as cli_mod

    def broken(*args, **kwargs):
        raise TheoremViolationError("forced cross-check failure")

    monkeypatch.setattr(cli_mod, "verify_suite", broken)
    monkeypatch.setattr(sys, "argv", ["ringscope", "verify", "z8"])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 4
    err = capsys.readouterr().err
    assert err == "internal error: forced cross-check failure\n"


def test_broken_ideal_order_exits_4(monkeypatch, capsys):
    """A right-ideal order that is not a lattice is an internal error
    (exit 4), not bad input (exit 2)."""
    import ringscope.ideals as ideals_mod

    real = ideals_mod.inclusion_order

    def lossy(sets):  # forgets that 0, listed first, lies in the others
        return [1] + real(sets)[1:]

    monkeypatch.setattr(ideals_mod, "inclusion_order", lossy)
    code, _ = run(["classify", "z8"])
    assert code == 4
    assert "no meet" in capsys.readouterr().err


def test_bound_exceeded_exit_code(monkeypatch):
    monkeypatch.setenv("RINGSCOPE_MAX_ORDER", "4")
    code, _ = run(["ring", "show", "z8"])
    assert code == 3


@pytest.mark.parametrize("base, size", [
    ({"type": "zmod", "n": 1}, 20000),
    ({"type": "table", "orders": [1], "mul": [[[0]]], "one": [0]}, 30)])
def test_matrix_ring_over_order_one_exits_3(monkeypatch, tmp_path, base,
                                            size):
    """A base of order 1 passes the order cap at any size, so the size is
    held to size² <= cap.bit_length(): a large one exits 3 at once,
    before the basis is listed, and size 4 still builds."""
    monkeypatch.delenv("RINGSCOPE_MAX_ORDER", raising=False)
    path = tmp_path / "m.ring"
    for n, expected in ((size, 3), (4, 0)):
        doc = {"construct": {"type": "matrix", "base": base, "size": n}}
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        code, _ = run(["ring", "show", str(path)])
        assert code == expected
        assert time.perf_counter() - start < 1


@pytest.mark.parametrize("argv", [["classify"], ["profile", "--kind", "i"],
                                  ["profile", "--kind", "p"], ["filters"],
                                  ["verify"]])
def test_filter_guard_exits_3(monkeypatch, capsys, argv):
    """Every command that lists the linear filters exits 3 on a ring with
    more right ideals than the filter guard, and answers at the guard:
    quiver_f2 has 28 right ideals."""
    import ringscope.torsion as torsion_mod

    command = [argv[0], "quiver_f2", *argv[1:]]
    monkeypatch.setattr(torsion_mod, "FILTER_IDEAL_GUARD", 27)
    code, _ = run(command)
    assert code == 3
    assert capsys.readouterr().err == (
        "error: 28 right ideals exceed the filter guard 27\n")
    monkeypatch.setattr(torsion_mod, "FILTER_IDEAL_GUARD", 28)
    code, _ = run(command)
    assert code == 0


def test_a4_answers_under_the_filter_guard():
    """F2(1→2→3→4), the path algebra of A4, has 362 right ideals, within
    the filter guard: classify_report answers, with a 14-node i-profile
    (about 2.4 s, pure Python)."""
    from ringscope import classify_report, torsion
    from ringscope.ideals import right_ideals

    ring = ring_from_spec({"construct": {
        "type": "path_algebra", "p": 2, "vertices": 4,
        "arrows": [[1, 2], [2, 3], [3, 4]]}, "label": "A4"})
    assert len(right_ideals(ring)) == 362 <= torsion.FILTER_IDEAL_GUARD
    assert classify_report(ring)["profile_nodes"] == 14


def test_a_ring_past_the_filter_guard_exits_3(tmp_path, capsys):
    """F2^9 has 512 right ideals, more than the filter guard: listing its
    filters exits 3."""
    path = tmp_path / "f2x9.ring"
    path.write_text(json.dumps({"construct": {
        "type": "product", "factors": [{"type": "zmod", "n": 2}] * 9}}))
    code, _ = run(["filters", str(path)])
    assert code == 3
    assert capsys.readouterr().err == (
        "error: 512 right ideals exceed the filter guard 400\n")


F2 = {"type": "zmod", "n": 2}


@pytest.mark.parametrize("construct", [
    {"type": "path_algebra", "p": 1000000000000000003, "vertices": 1,
     "arrows": []},
    *({"type": "path_algebra", "p": 2, "vertices": n,
       "arrows": [[v, v + 1] for v in range(1, n) for _ in range(3)]}
      for n in (6, 7)),
    {"type": "matrix", "base": F2, "size": 60000},
    {"type": "matrix", "base": F2, "size": 150000},
    {"type": "product", "factors": [F2] * 400},
])
def test_order_cap_is_checked_before_the_table(monkeypatch, tmp_path,
                                               capsys, construct):
    """A small file naming a ring over the order cap exits 3 within a
    second: the cap is checked on p before its trial division, on the
    paths as they are listed, on size² for a matrix ring and on the
    factors' orders for a product, before any table is built."""
    monkeypatch.delenv("RINGSCOPE_MAX_ORDER", raising=False)
    path = tmp_path / "big.ring"
    path.write_text(json.dumps({"construct": construct}))
    start = time.perf_counter()
    assert run(["ring", "show", str(path)])[0] == 3
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith(
        " exceeds bound 65536\n")


def test_deeply_nested_files_are_invalid_input(tmp_path, capsys):
    """A ring or module file nested past the recursion limit exits 2 with
    an error line, whether the decoder or the builder gives out."""
    deep = tmp_path / "deep.ring"
    deep.write_text("[" * 200000)
    assert run(["ring", "show", str(deep)])[0] == 2
    assert capsys.readouterr().err == (
        "error: ring file is nested too deeply\n")
    doc = '{"type": "regular"}'
    for _ in range(700):
        doc = f'{{"type": "direct_sum", "summands": [{doc}]}}'
    deep = tmp_path / "deep.module"
    deep.write_text(doc)
    assert run(["domains", "--ring", "z8", "--module", str(deep),
                "--kind", "i"])[0] == 2
    assert capsys.readouterr().err == (
        "error: module file is nested too deeply\n")
    # near the recursion limit the builder, which recurses once per
    # construct, gives out on documents that the decoder still reads
    docs, construct = [], '{"type": "zmod", "n": 2}'
    for _ in range(sys.getrecursionlimit()):
        construct = f'{{"type": "opposite", "base": {construct}}}'
        docs.append(f'{{"construct": {construct}}}')
    deepest = len(docs) - 1
    while True:
        try:
            json.loads(docs[deepest])
            break
        except RecursionError:
            deepest -= 1
    for doc in docs[deepest - 10:]:
        try:
            parse_ring_file(doc)
        except InputError as exc:
            assert str(exc) == "ring file is nested too deeply"


@pytest.mark.parametrize("value", ["abc", "-5", "0"])
def test_order_cap_must_be_a_positive_integer(monkeypatch, capsys, value):
    monkeypatch.setenv("RINGSCOPE_MAX_ORDER", value)
    code, _ = run(["ring", "show", "z8"])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: RINGSCOPE_MAX_ORDER must be a positive integer, "
        f"got {value!r}\n")


@pytest.mark.parametrize("command, flag", [
    ("modules", "--max-rank"),
    ("modules", "--max-order"),
    ("verify", "--max-rank"),
    ("verify", "--max-module-order"),
])
@pytest.mark.parametrize("value", ["0", "-3", "abc"])
def test_bound_options_must_be_at_least_one(capsys, command, flag, value):
    with pytest.raises(SystemExit) as exc:
        run([command, "f2xy_x2y2", flag, value])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        f"error: argument {flag}: must be an integer >= 1, got {value!r}\n")


@pytest.mark.parametrize("ring_doc, module_doc, field", [
    ({"type": "zmod", "n": "abc"}, None, "construct.n"),
    ({"type": "zmod", "n": [2]}, None, "construct.n"),
    ({"type": "table", "orders": [2], "mul": [[[1]]], "one": "x"}, None,
     "construct.one"),
    ({"type": "path_algebra", "p": 2, "vertices": 2, "arrows": [[1]]}, None,
     "construct.arrows"),
    ({"type": "zmod", "n": 8}, {"type": "quotient_of_free", "rank": "abc"},
     "quotient_of_free.rank"),
])
def test_malformed_field_exits_2(tmp_path, capsys, ring_doc, module_doc,
                                 field):
    ring = tmp_path / "bad.ring"
    ring.write_text(json.dumps({"construct": ring_doc}))
    argv = ["ring", "show", str(ring)]
    if module_doc is not None:
        mod = tmp_path / "bad.module"
        mod.write_text(json.dumps(module_doc))
        argv = ["domains", "--ring", str(ring), "--module", str(mod),
                "--kind", "i"]
    code, _ = run(argv)
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {field} ")


@pytest.mark.parametrize("ring_doc, module_doc, message", [
    ({"construct": {"type": "zmod", "n": "abc"}}, None,
     "construct.n must be an integer"),
    ({"construct": {"type": "zmod", "n": [2]}}, None,
     "construct.n must be an integer"),
    ({"construct": {"type": "table", "orders": [2], "mul": [[[1]]],
                    "one": "x"}}, None,
     "construct.one must be a list of integers"),
    ({"construct": {"type": "path_algebra", "p": 2, "vertices": 2,
                    "arrows": [[1]]}}, None,
     "construct.arrows must be [source, target] pairs"),
    ({"construct": {"type": "zmod", "n": 8}},
     {"type": "quotient_of_free", "rank": "abc"},
     "quotient_of_free.rank must be an integer"),
    ({"construct": {"type": "zmod", "n": 8}, "lable": "Z/8"}, None,
     "ring file has unknown field 'lable'"),
    ({"construct": {"type": "product", "factors": [
        {"type": "zmod", "n": 2}, {"type": "zmod", "n": 4, "m": 2}]}}, None,
     "construct.factors[1]: constructor 'zmod' has no field 'm'"),
    ({"construct": {"type": "zmod", "n": 8}, "label": {"a": 1}}, None,
     "label must be a string"),
    ({"construct": {"type": "zmod", "n": 8}},
     {"type": "direct_sum", "summands": [{"type": "regular"}, 5]},
     "module file needs a top-level 'type'"),
    ({"construct": {"type": "zmod", "n": 8}},
     {"type": "direct_sum", "summands": [{"type": "direct_sum", "summands": [
         {"type": "quotient_of_free", "rank": "abc"}]}]},
     "quotient_of_free.rank must be an integer"),
    ({"construct": {"type": "zmod", "n": 8}},
     {"type": "direct_sum", "summands": [{"type": "wat"}]},
     "unknown module type 'wat'"),
    ({"construct": {"type": "zmod", "n": 8}},
     {"type": "cyclic", "ideal_gen": [[2]]},
     "module type 'cyclic' has no field 'ideal_gen'"),
    ({"construct": {"type": "zmod", "n": 8}},
     {"type": "quotient_of_free", "rank": 2, "relation": [[1, 0]]},
     "module type 'quotient_of_free' has no field 'relation'"),
    ({"construct": {"type": "zmod", "n": 8}},
     {"type": "regular", "label": "R"},
     "module type 'regular' has no field 'label'"),
    ({"construct": {"type": "zmod", "n": 8}},
     {"type": "direct_sum", "summands": [
         {"type": "regular"}, {"type": "cyclic", "ideal_gens": [[4]],
                               "rank": 1}]},
     "module type 'cyclic' has no field 'rank'"),
    ({"construct": {"type": "zmod", "n": 8}},
     {"type": "direct_sum", "summand": [{"type": "regular"}]},
     "module type 'direct_sum' has no field 'summand'"),
])
def test_malformed_document_raises_input_error(ring_doc, module_doc, message):
    """Library callers get the checks the CLI relies on."""
    with pytest.raises(InputError) as exc:
        ring = ring_from_spec(ring_doc)
        parse_module_file(json.dumps(module_doc), ring)
    assert str(exc.value) == message


@pytest.mark.parametrize("ring_doc, code, first_line", [
    ({"type": "zmod", "n": 1}, 0, "label: Z/1"),
    ({"type": "quotient", "base": {"type": "zmod", "n": 8},
      "ideal_gens": [[1]]}, 0, "label: Z/8/I"),
    ({"type": "path_algebra", "p": 2, "vertices": 0, "arrows": []}, 0,
     "label: F2-quiver(0v,0a)"),
    ({"type": "path_algebra", "p": 2, "vertices": -3, "arrows": []}, 2,
     "error: path algebra needs vertices >= 0"),
])
def test_zero_ring_documents(tmp_path, capsys, ring_doc, code, first_line):
    """Z/1 is the rank-0 zero ring that the other constructors give, and
    it is not local; a negative vertex count is rejected."""
    ring = tmp_path / "zero.ring"
    ring.write_text(json.dumps({"construct": ring_doc}))
    got, text = run(["ring", "show", str(ring)])
    assert got == code
    lines = (text or capsys.readouterr().err).splitlines()
    assert lines[0] == first_line
    if code == 0:
        assert lines[1:] == ["order: 1", "generator orders: []", "one: []"]
        got, text = run(["classify", str(ring)])
        assert got == 0
        # no maximal right ideal, so not local
        assert "local: False" in text.splitlines()


def test_order_one_generator_is_accepted(tmp_path):
    """F2 with a redundant zero generator classifies like Z/2."""
    ring = tmp_path / "f2.ring"
    ring.write_text(json.dumps({"construct": {
        "type": "table", "orders": [2, 1],
        "mul": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]], "one": [1, 0]}}))
    z2 = tmp_path / "z2.ring"
    z2.write_text(json.dumps({"construct": {"type": "zmod", "n": 2}}))
    code, text = run(["classify", "--json", str(ring)])
    assert code == 0
    got = json.loads(text)
    want = json.loads(run(["classify", "--json", str(z2)])[1])
    assert (got.pop("label"), want.pop("label")) == ("table", "Z/2")
    assert got == want
    code, text = run(["verify", str(ring)])
    assert code == 0
    assert text.splitlines()[-1] == "all checks passed"


def test_profile_requires_a_ring(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["profile", "--kind", "i"])
    assert exc.value.code == 2
    assert "required: ring" in capsys.readouterr().err


@pytest.mark.parametrize("ring_doc, module_doc", [
    ({"type": "zmod", "n": 8}, {"type": "cyclic", "ideal_gens": [[1, 2]]}),
    ({"type": "zmod", "n": 8},
     {"type": "quotient_of_free", "rank": 2, "relations": [[2, 0, 0]]}),
    ({"type": "quotient", "base": {"type": "zmod", "n": 8},
      "ideal_gens": [[4, 0]]}, None),
    ({"type": "table", "orders": [2], "mul": [[[1, 0]]], "one": [1]}, None),
    ({"type": "quotient", "base": {"type": "zmod", "n": 1},
      "ideal_gens": [[1]]}, None),
])
def test_wrong_length_vector_exits_2(tmp_path, capsys, ring_doc, module_doc):
    """A coordinate vector longer than the rank is rejected, not truncated."""
    ring = tmp_path / "bad.ring"
    ring.write_text(json.dumps({"construct": ring_doc}))
    argv = ["ring", "show", str(ring)]
    if module_doc is not None:
        mod = tmp_path / "bad.module"
        mod.write_text(json.dumps(module_doc))
        argv = ["domains", "--ring", str(ring), "--module", str(mod),
                "--kind", "i"]
    code, _ = run(argv)
    assert code == 2
    assert "coordinates, expected" in capsys.readouterr().err


def test_module_entry_point_survives_optimize():
    """python -m ringscope runs the CLI, and -O (asserts stripped) changes
    neither the exit code nor the output."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    runs = [subprocess.run([sys.executable, *flags, "-m", "ringscope",
                            "verify", "z8"], capture_output=True, text=True,
                           env=env, check=False)
            for flags in ([], ["-O"])]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
    assert "all checks passed" in runs[0].stdout
    assert runs[0].stdout == runs[1].stdout


def test_cli_module_entry_point_matches_package_entry_point():
    """python -m ringscope.cli behaves like python -m ringscope."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    runs = [subprocess.run([sys.executable, "-m", module, "verify", "z8"],
                           capture_output=True, text=True, env=env,
                           check=False)
            for module in ("ringscope", "ringscope.cli")]
    assert "all checks passed" in runs[0].stdout
    assert (runs[1].returncode, runs[1].stdout) == \
        (runs[0].returncode, runs[0].stdout)


def test_package_has_no_assert_statements():
    """Checks raise errors, so that python -O keeps them."""
    src = Path(__file__).resolve().parent.parent / "src" / "ringscope"
    files = sorted(src.glob("*.py"))
    assert files
    found = [f"{path.name}:{node.lineno}"
             for path in files
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_package_imports_only_names_it_uses():
    """No module of the package (its __init__ aside, which re-exports) or
    of the tests imports a name it never reads."""
    tests = Path(__file__).resolve().parent
    src = tests.parent / "src" / "ringscope"
    files = sorted(p for p in [*src.glob("*.py"), *tests.glob("*.py")]
                   if p.name != "__init__.py")
    assert files
    unused = []
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            alias.asname or alias.name.split(".")[0]: node.lineno
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names}
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}"
                   for name, line in imported.items() if name not in used]
    assert unused == []


# re-exports that nothing in the package reads, kept as API: the
# projectivity test and σ[M] membership, which the README names, the
# paper's middle-class predicate, and the units the README lists
PAPER_API = {"is_projective", "sigma_contains", "has_middle_class", "units"}


def _names_read(node, enclosing=frozenset()):
    """Every name read under node, except inside a def or class of the
    same name (its own definition)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            yield from _names_read(child, enclosing | {child.name})
        elif isinstance(child, ast.Name):
            if child.id not in enclosing:
                yield child.id
        else:
            yield from _names_read(child, enclosing)


def _methods(tree):
    """The name Class.method of each non-dunder method of a class in
    tree."""
    return {f"{cls.name}.{f.name}" for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) for f in cls.body
            if isinstance(f, ast.FunctionDef)
            and not (f.name.startswith("__") and f.name.endswith("__"))}


def test_every_export_has_a_caller():
    """Each name the package's __init__ re-exports, and each module-level
    function and class, is read somewhere in the package outside its own
    definition; each method of a class is read as an attribute somewhere
    in the package; or the name is in PAPER_API."""
    src = Path(__file__).resolve().parent.parent / "src" / "ringscope"
    init = ast.parse((src / "__init__.py").read_text(encoding="utf-8"))
    exported = {alias.asname or alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    defined, read, methods, attrs = set(), set(), set(), set()
    for path in sorted(src.glob("*.py")):
        if path.name != "__init__.py":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            read.update(_names_read(tree))
            defined.update(node.name for node in tree.body if isinstance(
                node, (ast.FunctionDef, ast.ClassDef)))
            methods |= _methods(tree)
            attrs.update(node.attr for node in ast.walk(tree)
                         if isinstance(node, ast.Attribute)
                         and isinstance(node.ctx, ast.Load))
    unread = {m for m in methods if m.split(".")[1] not in attrs}
    assert sorted((exported | defined) - read - PAPER_API) == []
    assert sorted(unread) == []
    assert PAPER_API <= exported
