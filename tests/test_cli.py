import hashlib
import json
import os
import subprocess
import sys
import time

import pytest

from buraubuilding import arith, building, cli, groupcalc, rep
from buraubuilding.cli import (
    build_config,
    dumps,
    main,
    make_parser,
    parse_vertex_spec,
)
from buraubuilding.building import identity_vertex, link, link_dot, link_edges
from buraubuilding.groupcalc import kernel_witness_check


def run(argv, capsys, cache_dir=None, expect=0):
    if cache_dir is not None:
        argv = list(argv) + ["--cache-dir", str(cache_dir)]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == expect, out
    return out


# -- configuration -----------------------------------------------------------

def test_config_defaults():
    args = make_parser().parse_args(["verify"])
    cfg = build_config(args)
    assert cfg.prime == 3
    assert cfg.output_format == "text"


def test_config_file_and_flag_precedence(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("prime=5\nradius=2\n")
    args = make_parser().parse_args(
        ["explore", "--config", str(cfgfile), "--p", "7"])
    cfg = build_config(args)
    assert cfg.prime == 7       # flag wins
    assert cfg.radius == 2      # file beats default


def _main_subprocess(*argv):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-c",
         "import sys; from buraubuilding.cli import main; sys.exit(main())",
         *argv],
        capture_output=True, text=True, env=env)


def test_removed_jobs_flag_is_rejected():
    # --seed and --jobs were parsed but never used; they are gone
    proc = _main_subprocess("verify", "--jobs", "2")
    assert proc.returncode == 2
    assert "unrecognized arguments: --jobs 2" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("argv", [
    ("verify", "--radius", "2"),
    ("stab", "--vertex", "I", "--cache-dir", "d"),
    ("explore", "--digit-bound", "3"),
    # the claims stated at p = 3 only take no --p
    ("verify", "--p", "3"),
    ("witness", "--p", "5"),
    ("tube", "--p", "3"),
    ("presentation-export", "--p", "3"),
])
def test_flags_a_subcommand_does_not_read_are_rejected(argv):
    proc = _main_subprocess(*argv)
    assert proc.returncode == 2
    assert "unrecognized arguments: %s" % " ".join(argv[-2:]) in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("argv, unread", [
    (("--depth", "5"), "--method exact does not read --depth"),
    (("--gens", "u"), "--method exact does not read --gens"),
    (("--method", "words", "--digit-bound", "1"),
     "--method words does not read --digit-bound"),
    (("--method", "words", "--budget", "1"),
     "--method words does not read --budget"),
], ids=["exact-depth", "exact-gens", "words-digit-bound", "words-budget"])
def test_stab_flags_its_method_does_not_read_are_rejected(argv, unread):
    proc = _main_subprocess("stab", "--vertex", "I", *argv)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == ["error: " + unread]
    assert proc.stdout == ""


def test_config_rejects_unknown_key(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("primes=5\n")
    args = make_parser().parse_args(["verify", "--config", str(cfgfile)])
    with pytest.raises(ValueError):
        build_config(args)


@pytest.mark.parametrize("command, line", [
    ("stab-identity", "radius=2"),
    ("verify", "digitBound=4"),
    ("verify", "prime=3"),
])
def test_config_keys_a_subcommand_does_not_read_are_rejected(
        command, line, tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(line + "\n")
    proc = _main_subprocess(command, "--config", str(cfgfile))
    key = line.split("=")[0]
    assert proc.returncode == 2
    assert "config key %r is not read by %s" % (key, command) in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_cache_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("BURAUBUILDING_CACHE_DIR", str(tmp_path / "c"))
    args = make_parser().parse_args(["verify"])
    assert build_config(args).cache_dir == str(tmp_path / "c")


# -- vertex specs --------------------------------------------------------------

def test_vertex_spec_identity_and_word():
    assert parse_vertex_spec("I", 3).exps == (0, 0, 0)
    v = parse_vertex_spec("M19", 3)
    assert v.exps == (0, 1, 1)


def test_vertex_spec_matrix_literal():
    v = parse_vertex_spec("[[1,0,0],[2,t^-2,0],[0,0,t^-2]]", 3)
    assert v.exps == (0, 2, 2)


def test_vertex_spec_rejects_bad_literal():
    with pytest.raises(ValueError):
        parse_vertex_spec("[[1,0],[0,1]]", 3)


def test_matrix_literal_with_spaces_between_rows(capsys):
    # spaces anywhere in a literal are dropped before it is split
    tight = "[[1,0,0],[2,t^-2,0],[0,0,t^-2]]"
    docs = []
    for spec in (tight, "[[1, 0, 0], [2, t^-2, 0], [0, 0, t^-2]]",
                 " [ [1,0, 0] ,[2 ,t^-2,0],  [0,0,t^-2 ] ] "):
        d = json.loads(run(["stab", "--vertex", spec, "--json"], capsys))
        d.pop("elapsed")
        docs.append(dumps(d))
    assert docs[1] == docs[0] and docs[2] == docs[0]
    assert main(["stab", "--vertex", "[[1, 0], [0, 1], [0, 0]]"]) == 2
    assert capsys.readouterr().err == "error: matrix literal must be 3x3\n"


def test_main_builds_one_parser_per_process(monkeypatch, capsys, tmp_path):
    # two in-process runs of two claims share one argparse tree and print
    # what the first runs printed
    import argparse
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    make_parser.cache_clear()
    outs = []
    for k in range(2):
        d = json.loads(run(["explore", "--p", "2", "--radius", "1", "--json"],
                           capsys, cache_dir=tmp_path / str(k)))
        d.pop("elapsed")
        outs.append(dumps(d))
        outs.append(run(["link", "--p", "3", "--dot"], capsys))
        if k == 0:
            first = len(built)
    assert outs[2:] == outs[:2]
    assert len(built) == first
    make_parser.cache_clear()
    make_parser()
    assert len(built) == 2 * first


# -- subcommands ----------------------------------------------------------------

def test_stab_identity_pass(capsys):
    out = run(["stab-identity", "--p", "3", "--json"], capsys)
    d = json.loads(out)
    assert d["status"] == "pass"
    assert d["data"]["imageOrder"] == 4


def test_stab_identity_not_prime(capsys):
    assert main(["stab-identity", "--p", "4"]) == 2


def test_stab_identity_past_the_paper_primes_is_partial(capsys):
    # no image order is recorded for p = 13, so the run is exact but partial
    d = json.loads(run(["stab-identity", "--p", "13", "--json"], capsys,
                       expect=1))
    assert d["status"] == "partial"
    assert (d["data"]["order"], d["data"]["imageOrder"]) == (12, 12)
    assert d["data"]["complete"] and d["data"]["expectedImageOrder"] is None


def test_stab_identity_over_the_column_budget():
    # at [I] each column has p^3 candidates; 163^3 exceeds the 4M budget,
    # which is checked before anything is allocated
    proc = _main_subprocess("stab-identity", "--p", "163")
    assert proc.returncode == 2
    assert "column candidate space 4330747 exceeds budget 4000000" \
        in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_a_prime_past_the_certified_bound_is_refused_at_once():
    # 2^89 - 1 is prime, but past 3.3e24 no test here certifies it
    start = time.perf_counter()
    proc = _main_subprocess("stab-identity", "--p", str(2 ** 89 - 1))
    assert time.perf_counter() - start < 10
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        "error: primality of %d is not certified at or above "
        "3317044064679887385961981" % (2 ** 89 - 1)]
    assert proc.stdout == ""


def test_stab_tube2_over_the_default_column_budget():
    # tube(2) has 3^15 candidates per column; --budget 750000 (a column
    # budget of 15M) makes it exact, the default refuses it
    proc = _main_subprocess("stab", "--vertex", "[[1,0,0],[2,t^-3,0],[0,0,t^-3]]")
    assert proc.returncode == 2
    assert "column candidate space 14348907 exceeds budget 4000000" \
        in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_verify_pass(capsys):
    out = run(["verify", "--json"], capsys)
    d = json.loads(out)
    assert d["status"] == "pass"
    assert len(d["data"]["relations"]) == 9


def test_witness_variants(capsys):
    d = json.loads(run(["witness", "--json"], capsys))
    assert d["data"]["homothetyMod3"] and not d["data"]["homothetyIntegral"]
    d = json.loads(run(["witness", "--mod-only", "--json"], capsys))
    assert "homothetyIntegral" not in d["data"]
    d = json.loads(run(["witness", "--integral-only", "--json"], capsys))
    assert "homothetyMod3" not in d["data"]


def test_witness_agrees_with_kernel_witness_check(capsys):
    # cmd_witness evaluates the kernel word itself; keep it in step with
    # the check the library reports
    rpt = kernel_witness_check()
    d = json.loads(run(["witness", "--json"], capsys))["data"]
    assert d["homothetyMod3"] == rpt.holds_mod_p
    assert d["homothetyIntegral"] == rpt.holds_integrally


def test_witness_evaluates_the_kernel_word_once_per_ring(monkeypatch, capsys):
    # the integral matrix of the verdict also gives the entry degrees
    from buraubuilding import groupcalc
    calls = []
    for module in (groupcalc, cli):
        for name in ("word_evaluate", "word_evaluate_integral"):
            if hasattr(module, name):
                original = getattr(module, name)

                def counted(*args, name=name, original=original):
                    calls.append(name)
                    return original(*args)

                monkeypatch.setattr(module, name, counted)
    d = json.loads(run(["witness", "--json"], capsys))["data"]
    assert sorted(calls) == ["word_evaluate", "word_evaluate_integral"]
    assert len(d["integralEntryDegrees"]) == 3


def test_only_the_column_enumeration_loads_numpy(tmp_path):
    code = """
import contextlib, io, sys
from buraubuilding.cli import main

def claim(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(list(argv) + ["--json"]) == 0, argv

claim("explore", "--p", "2", "--radius", "1", "--gens", "x,y",
      "--cache-dir", sys.argv[1])
claim("link", "--vertex", "I")
claim("verify")
claim("witness")
assert "numpy" not in sys.modules
claim("stab", "--vertex", "I")
assert "numpy" in sys.modules
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr


def test_link_text_and_dot(capsys):
    out = run(["link", "--p", "2", "--vertex", "I"], capsys)
    assert "count: 14" in out.replace("  ", " ").replace("   ", " ") or "14" in out
    out = run(["link", "--p", "2", "--vertex", "I", "--dot"], capsys)
    assert "graph link {" in out


def test_link_dot_prints_only_the_graph(capsys, monkeypatch, tmp_path):
    # the DOT graph is all of stdout, from the flag or from the config file,
    # and the exit code still follows the claim: a short link fails it, and
    # the graph is that of the one link the run enumerated
    lk = link(identity_vertex(2))
    want = link_dot(lk, link_edges(lk))
    assert run(["link", "--p", "2", "--vertex", "I", "--dot"], capsys) == want
    cfg = tmp_path / "run.cfg"
    cfg.write_text("outputFormat=dot\n")
    assert run(["link", "--p", "2", "--config", str(cfg)], capsys) == want
    monkeypatch.setattr(cli, "link", lambda v: link(v)[:-1])
    short = lk[:-1]
    assert run(["link", "--p", "2", "--dot"], capsys, expect=1) == \
        link_dot(short, link_edges(short))


@pytest.mark.parametrize("p, digest", [
    (2, "dbeb8f27c2ab9569"), (3, "a6c4363ac8830076"),
])
def test_link_dot_golden(p, digest, capsys):
    out = run(["link", "--p", str(p), "--vertex", "I", "--dot"], capsys)
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


@pytest.mark.parametrize("dot", [False, True])
def test_link_enumerates_one_link_and_tests_each_pair_once(
        dot, capsys, monkeypatch):
    # the degrees and the DOT graph read one link, and adjacency is
    # symmetric: 26 * 25 / 2 = 325 pairs at p = 3
    calls = []
    for module in (building, cli):
        for name in ("link", "is_adjacent"):
            if hasattr(module, name):
                original = getattr(module, name)

                def counted(*args, name=name, original=original):
                    calls.append(name)
                    return original(*args)

                monkeypatch.setattr(module, name, counted)
    run(["link", "--p", "3", "--vertex", "I"] + (["--dot"] if dot else []),
        capsys)
    assert (calls.count("link"), calls.count("is_adjacent")) == (1, 325)


def test_link_dot_and_json_exclude_each_other(capsys):
    assert main(["link", "--p", "2", "--dot", "--json"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == "error: --dot and --json exclude each other\n"


@pytest.mark.parametrize("command, fmt", [
    ("verify", "xml"), ("link", "xml"), ("verify", "dot"), ("witness", "DOT"),
])
def test_config_output_format_is_checked(command, fmt, capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("outputFormat=%s\n" % fmt)
    assert main([command, "--config", str(cfg)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: outputFormat %r" % fmt)


def test_witness_flags_exclude_each_other():
    # together they would run neither check and report a pass
    proc = _main_subprocess("witness", "--mod-only", "--integral-only")
    assert proc.returncode == 2
    assert "argument --integral-only: not allowed with argument --mod-only" \
        in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_stab_n_point(capsys):
    d = json.loads(run(["stab", "--p", "3", "--vertex", "M19", "--json"], capsys))
    assert d["status"] == "pass"
    assert d["data"]["order"] == 6


def test_unknown_letter_error_prints_the_message_without_quotes(capsys):
    assert main(["stab", "--vertex", "q"]) == 2
    assert capsys.readouterr().err == "error: letter 'q' has no matrix at p = 3\n"


def test_stab_word_search_partial(capsys):
    code = main(["stab", "--p", "3", "--vertex", "M19", "--method", "words",
                 "--gens", "u", "--depth", "2", "--json"])
    out = capsys.readouterr().out
    d = json.loads(out)
    assert code == 1            # partial: word search is a lower bound
    assert d["status"] == "partial"
    assert d["data"]["imageOrder"] == 6


def test_json_round_trip(capsys):
    out = run(["verify", "--json"], capsys)
    assert dumps(json.loads(out)) == out


def test_presentation_export(capsys):
    d = json.loads(run(["presentation-export", "--json"], capsys))
    assert d["data"]["generators"]["u"]["orderModHomothety"] == 6
    assert len(d["data"]["relators"]) == 9


@pytest.mark.parametrize("argv, digest", [
    (["witness"], "9427b5f4478f9dfd"),
    (["witness", "--mod-only"], "cf81c37e30c3c344"),
    (["witness", "--integral-only"], "8fa58c7e867fbd90"),
    (["verify"], "180306f50215daae"),
    (["presentation-export"], "603def1405b3501a"),
    (["stab-identity", "--p", "3"], "5cd065bde8b8f8a3"),
    (["stab", "--vertex", "M19"], "889ad74bdb1ddd0a"),
    (["stab", "--vertex", "[[1,0,0],[2,t^-2,0],[0,0,t^-2]]"],
     "79ad6b39952751e9"),
    (["stab", "--vertex", "I"], "af8a3e004b07e811"),
    (["link", "--vertex", "I"], "f1551c1aa0ac9a15"),
    (["explore", "--p", "2", "--radius", "2", "--gens", "x,y"],
     "b260d926e5dc5bb2"),
    (["explore", "--p", "5", "--radius", "1", "--gens", "x"],
     "3c041fe0b709f08c"),
], ids=["witness", "witness-mod-only", "witness-integral-only", "verify",
        "presentation-export", "stab-identity-p3", "stab-M19", "stab-7star", "stab-I", "link-I", "explore-p2-r2-xy",
        "explore-p5-r1-x"])
def test_json_output_golden(argv, digest, capsys, tmp_path):
    # refactors must keep every claim's JSON byte-identical; the first five
    # pinned before the integral and mod-p types were merged, the last three
    # (canonical forms and orbit tables) before canonicalize was truncated
    # modulo pi^(D+1), stab-7star and stab-I before the column enumeration of
    # stab_exact took one half-window pass per digit profile; stab-identity-p3
    # was re-pinned when stab_identity_exact became stab_exact at [I], which
    # changed only its "bounds"; the two witness forms were pinned before
    # the witness command took its verdicts from kernel_witness_check
    cache = tmp_path if argv[0] == "explore" else None
    d = json.loads(run(argv + ["--json"], capsys, cache_dir=cache))
    d.pop("elapsed")
    assert hashlib.sha256(dumps(d).encode()).hexdigest()[:16] == digest


# RatFunc field arithmetic, the gcd it normalizes with, and every read of a
# RatFunc as a Laurent polynomial or a pi-adic number; no claim needs them,
# since a matrix holds Laurent terms only and its entries are LaurentPoly
RATFUNC_ARITHMETIC = ("__add__", "__sub__", "__mul__", "__neg__", "inverse",
                      "__truediv__", "__pow__", "involution", "shift_pi",
                      "laurent_terms", "to_laurent", "residue", "valuation")


def test_claims_run_without_ratfunc_arithmetic(monkeypatch, capsys, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("RatFunc arithmetic reached")

    for name in RATFUNC_ARITHMETIC:
        monkeypatch.setattr(arith.RatFunc, name, refuse)
    monkeypatch.setattr(arith, "pgcd", refuse)
    monkeypatch.setattr(arith.LaurentPoly, "to_ratfunc", refuse)
    # the letter matrices, their inverses and their packed forms are built
    # again under the patch
    for cached in (rep.burau_generator, rep.letter_matrix, rep._packed_letter,
                   rep.squier_form, rep.squier_form_t):
        cached.cache_clear()
    seven = "[[1,0,0],[2,t^-2,0],[0,0,t^-2]]"
    claims = [
        (["stab", "--vertex", seven], 0, "79ad6b39952751e9"),
        (["stab", "--vertex", "M19"], 0, "889ad74bdb1ddd0a"),
        (["stab", "--vertex", "I"], 0, "af8a3e004b07e811"),
        (["stab", "--vertex", seven, "--method", "words"], 1, "9994d04547ad18dd"),
        (["stab", "--vertex", "M19", "--method", "words"], 1, "4f381fe9fc482703"),
        (["stab", "--vertex", "I", "--method", "words"], 1, "29deadfd55d40f7b"),
        (["stab-identity", "--p", "2"], 0, "e485a706db7b5718"),
        (["link", "--vertex", "I"], 0, "f1551c1aa0ac9a15"),
        (["witness"], 0, "9427b5f4478f9dfd"),
        (["verify"], 0, "180306f50215daae"),
        (["presentation-export"], 0, "603def1405b3501a"),
        (["explore", "--p", "2", "--radius", "2", "--gens", "x,y"], 0,
         "b260d926e5dc5bb2"),
    ]
    for argv, code, digest in claims:
        cache = tmp_path if argv[0] == "explore" else None
        d = json.loads(run(argv + ["--json"], capsys, cache_dir=cache, expect=code))
        d.pop("elapsed")
        assert hashlib.sha256(dumps(d).encode()).hexdigest()[:16] == digest, argv


def test_explore_cache_round_trip(tmp_path, capsys):
    argv = ["explore", "--p", "5", "--radius", "1", "--json"]
    cold = json.loads(run(argv, capsys, cache_dir=tmp_path))
    warm = json.loads(run(argv, capsys, cache_dir=tmp_path))
    cold.pop("elapsed")
    warm.pop("elapsed")
    assert cold == warm
    total = sum(o["sizeWithinRadius"] for o in cold["data"]["orbits"])
    assert total == 63          # [I] plus its 62-vertex link


def test_explore_cache_unreadable_entry_is_a_miss(tmp_path, capsys):
    argv = ["explore", "--p", "2", "--radius", "1", "--gens", "x,y", "--json"]
    cold = json.loads(run(argv, capsys, cache_dir=tmp_path))
    (entry,) = os.listdir(tmp_path)
    path = tmp_path / entry
    good = path.read_text()
    path.write_text(good[:len(good) // 2])          # truncated write
    again = json.loads(run(argv, capsys, cache_dir=tmp_path))
    cold.pop("elapsed")
    again.pop("elapsed")
    assert again == cold
    assert os.listdir(tmp_path) == [entry]
    assert path.read_text() == good                 # the miss rewrote it


def test_explore_keeps_the_generators_given(tmp_path, capsys):
    # u is dropped from the default list only, which is x,y at p != 3; a
    # letter the user gives with no matrix at p is refused
    d = json.loads(run(["explore", "--p", "2", "--json"], capsys,
                       cache_dir=tmp_path))
    assert d["data"]["generators"] == ["x", "y"]
    for gens, err in (("u", "u is defined at p = 3, not p = 2"),
                      ("x,y,u", "u is defined at p = 3, not p = 2"),
                      ("", "--gens names no generator")):
        argv = ["explore", "--p", "2", "--gens", gens, "--cache-dir",
                str(tmp_path)]
        assert main(argv) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err == "error: %s\n" % err


def test_explore_checks_the_group_point_count_for_x_y_u_only(
        tmp_path, capsys, monkeypatch):
    # the paper counts 19 group points in the radius-1 ball for <x, y, u>;
    # <x, y> has 13 there, which fails no claim
    d = json.loads(run(["explore", "--p", "3", "--gens", "x,y", "--json"],
                       capsys, cache_dir=tmp_path / "xy"))
    assert d["data"]["orbits"][0]["sizeWithinRadius"] == 13
    assert d["status"] == "pass" and "groupPointsInLink" not in d["data"]

    # x, y and u in any order are checked: 13 group points fail the claim
    def table(p, gens, radius, budget, stab_reports):
        group = {"label": "group-point", "representative": "(0,0,0 | 0;0;0)",
                 "sizeWithinRadius": 13}
        return groupcalc.OrbitTable(p, radius, gens, (group,), True)

    monkeypatch.setattr(cli, "orbit_classify", table)
    d = json.loads(run(["explore", "--p", "3", "--gens", "u,y,x", "--json"],
                       capsys, cache_dir=tmp_path / "uyx", expect=1))
    assert d["status"] == "fail" and d["data"]["groupPointsInLink"] == 12


def test_internal_error_exits_2_without_traceback(capsys, monkeypatch):
    def broken(config, args):
        raise AssertionError("enumerated matrix fails the independent re-check")
    monkeypatch.setitem(cli._COMMANDS, "verify", broken)
    assert main(["verify"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: AssertionError:")
    assert "Traceback" not in err
