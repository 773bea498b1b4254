"""CLI golden-file tests, the exit-code contract, and text/JSON agreement.

Every command is exercised on the R1 and R2 sessions against the committed
expected reports; each expected number in the goldens file names the oracle
that produced it.
"""

import json
import os
import subprocess
import sys

import pytest

from semidual import cli, semidualizing
from semidual.cli import Report, main, run_command
from semidual.corpus import (corpus_rings, corpus_sessions, data_path, data_text, golden_cases,
                             random_module_pool)
from semidual.errors import InputError, TheoremViolationError
from semidual.modules import clear_caches

_FLAGS = {"src": "--from", "dst": "--to", "max_dim": "--max-dim"}


def argv_for(case, json_mode: bool) -> list[str]:
    argv = [case.command, data_path(case.session)]
    for key, value in case.options.items():
        argv += [_FLAGS.get(key, f"--{key}"), str(value)]
    if json_mode:
        argv.append("--json")
    return argv


def check_expectations(case, verdict, dimensions, witnesses):
    exp = case.expect
    assert verdict == exp["verdict"], case.command
    for key, want in exp.get("dimensions", {}).items():
        assert dimensions.get(key) == want, (case.session, case.command, key)
    for fragment in exp.get("witness_contains", []):
        assert any(fragment in w for w in witnesses), (case.command, fragment)


CASES = golden_cases()
IDS = [f"{c.session.split('.')[0]}-{c.command}" for c in CASES]


class TestGoldens:
    @pytest.mark.parametrize("case", CASES, ids=IDS)
    def test_json_report(self, case, capsys):
        rc = main(argv_for(case, json_mode=True))
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert set(payload) == {"command", "ring", "verdict", "dimensions",
                                "witnesses", "bound", "millis"}
        check_expectations(case, payload["verdict"], payload["dimensions"],
                           payload["witnesses"])
        assert payload["command"] == case.command
        assert payload["ring"] == case.session.split(".")[0]
        assert payload["bound"] == case.options.get("bound", 5)
        assert rc == (1 if payload["verdict"] == "fail" else 0)

    @pytest.mark.parametrize("case", CASES, ids=IDS)
    def test_text_verdict_matches_json(self, case, capsys):
        rc = main(argv_for(case, json_mode=False))
        text = capsys.readouterr().out
        lines = text.splitlines()
        verdict = next(l.split(": ", 1)[1] for l in lines
                       if l.startswith("verdict:"))
        assert verdict == case.expect["verdict"]
        assert rc == (1 if verdict == "fail" else 0)
        # the human form carries every report field
        assert lines[0] == f"command: {case.command}"
        assert lines[1].startswith("ring: ")
        assert any(l.startswith("bound: ") for l in lines)
        assert any(l.startswith("time: ") and l.endswith(" ms") for l in lines)

    def test_goldens_cover_every_command_on_two_rings(self):
        seen = {}
        for case in CASES:
            seen.setdefault(case.command, set()).add(case.session)
        commands = {"check-ring", "check-semidualizing", "ext", "tor",
                    "relext", "relext-ic", "pd", "id", "cpd", "cid",
                    "classify", "foxby", "resolve", "verify-all"}
        assert set(seen) == commands
        for command, sessions in seen.items():
            assert sessions == {"R1.session", "R2.session"}, command

    def test_every_golden_names_an_oracle(self):
        for case in CASES:
            assert case.oracle.strip(), case.command


class TestExitCodes:
    def test_parse_error_exits_2_with_location(self, tmp_path, capsys):
        bad = tmp_path / "bad.session"
        bad.write_text('[ring]\nfield = 2\nvariables = ["x"]\n'
                       'relations = ["x+x^2"]\n', encoding="utf-8")
        rc = main(["check-ring", str(bad)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "line 4, column" in err
        assert "relations must be monomials" in err

    def test_unknown_module_exits_2(self, capsys):
        rc = main(["pd", data_path("R1.session"), "--module", "Q"])
        assert rc == 2
        assert "unknown module name 'Q'" in capsys.readouterr().err

    def test_out_of_memory_exits_2_without_a_traceback(self, tmp_path):
        """Ext(k, k) over G6 = GF(2)[x,y]/(x,y)^3 to degree 8 peaks at about
        1.15 GB; in a child capped at 800 MB of address space numpy cannot
        allocate a product, and the CLI prints one error line and exits 2."""
        path = tmp_path / "G6.session"
        path.write_text('[ring]\nname = "G6"\nfield = 2\nvariables = ["x", "y"]\n'
                        'relations = ["x^3", "x^2*y", "x*y^2", "y^3"]\n'
                        '[module.k]\nkind = "residue_field"\n', encoding="utf-8")
        child = ("import resource, sys\n"
                 "resource.setrlimit(resource.RLIMIT_AS, (800 * 2 ** 20, 800 * 2 ** 20))\n"
                 "from semidual.cli import main\n"
                 "sys.exit(main(sys.argv[1:]))\n")
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
        run = subprocess.run([sys.executable, "-c", child, "ext", str(path), "--from", "k",
                              "--to", "k", "--bound", "8"], env=env, capture_output=True, text=True)
        assert run.returncode == 2, run.stderr[-2000:]
        assert run.stdout == ""
        lines = run.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: out of memory"), run.stderr
        assert "Traceback" not in run.stderr

    def test_missing_file_exits_2(self, capsys):
        rc = main(["check-ring", "/nonexistent/ring.session"])
        assert rc == 2
        assert "cannot read session file" in capsys.readouterr().err

    def test_uncertified_c_exits_1(self, capsys):
        rc = main(["relext", data_path("R1.session"), "--c", "k",
                   "--from", "k", "--to", "k", "--i", "0"])
        assert rc == 1
        assert "semidualizing" in capsys.readouterr().err

    def test_failing_certificate_exits_1(self, capsys):
        rc = main(["check-semidualizing", data_path("R1.session"),
                   "--module", "k", "--json"])
        out = capsys.readouterr().out
        assert rc == 1
        payload = json.loads(out)
        assert payload["verdict"] == "fail"
        assert any("homothety" in w for w in payload["witnesses"])

    def test_usage_error_exits_2(self, capsys):
        assert main(["relext", data_path("R1.session")]) == 2
        capsys.readouterr()

    def test_unknown_command_exits_2(self, capsys):
        assert main(["transmogrify", data_path("R1.session")]) == 2
        capsys.readouterr()

    def test_no_command_exits_2(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert "semidual" in capsys.readouterr().out

    def test_negative_degree_exits_2(self, capsys):
        rc = main(["ext", data_path("R1.session"), "--from", "k", "--to", "k",
                   "--i", "-1"])
        assert rc == 2
        assert "degree must be nonnegative" in capsys.readouterr().err

    def test_negative_bound_exits_2(self, capsys):
        rc = main(["ext", data_path("R1.session"), "--from", "k", "--to", "k",
                   "--bound", "-3"])
        assert rc == 2
        capsys.readouterr()

    def test_proper_resolve_without_c_exits_2(self, capsys):
        rc = main(["resolve", data_path("R1.session"), "--module", "k",
                   "--kind", "proper-pc"])
        assert rc == 2
        assert "--c is required" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--pairs", "0"], ["--pairs", "-1"], ["--max-dim", "0"],
                                       ["--bound", "0"]])
    def test_empty_sample_pool_exits_2(self, flags, capsys):
        rc = main(["verify-all", data_path("R1.session"), *flags])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and f"{flags[0]} must be at least 1" in err


def test_an_unfillable_pool_is_an_input_error():
    with pytest.raises(InputError, match="random module pool did not fill"):
        random_module_pool(corpus_rings()["R1"], 1, max_dim=0)


# the required flags of each command; every other option is left to its default
_REQUIRED = {
    "check-ring": [], "verify-all": [],
    "check-semidualizing": ["--module", "k"], "pd": ["--module", "k"],
    "id": ["--module", "k"], "resolve": ["--module", "k"],
    "ext": ["--from", "k", "--to", "k"], "tor": ["--from", "k", "--to", "k"],
    "relext": ["--c", "D", "--from", "k", "--to", "k", "--i", "0"],
    "relext-ic": ["--c", "D", "--from", "k", "--to", "k", "--i", "0"],
    "cpd": ["--c", "D", "--module", "k"], "cid": ["--c", "D", "--module", "k"],
    "classify": ["--c", "D", "--module", "k"],
    "foxby": ["--c", "D", "--module", "k", "--direction", "hom"],
}


def test_parser_defaults_are_the_run_defaults():
    """Each command parsed with only its required flags carries the values
    of cli._DEFAULTS for every option it has."""
    assert set(_REQUIRED) == set(cli._HANDLERS)
    parser = cli._build_parser()
    seen = set()
    for command, required in _REQUIRED.items():
        ns = parser.parse_args([command, data_path("R1.session"), *required])
        given = set(required[::2])
        for key, want in cli._DEFAULTS.items():
            flag = _FLAGS.get(key, f"--{key}")
            if hasattr(ns, key) and flag not in given:
                assert getattr(ns, key) == want, (command, key)
                seen.add(key)
    assert {"bound", "i", "via", "kind", "c", "length", "pairs", "max_dim"} <= seen


def test_large_prime_copy_of_r1_verifies(tmp_path, capsys):
    text = data_text("R1.session")
    assert "field = 2\n" in text
    path = tmp_path / "R1_large_prime.session"
    path.write_text(text.replace("field = 2\n", "field = 2147483647\n"))
    assert main(["verify-all", str(path), "--bound", "3", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "pass"
    for command, key in (("ext", "Ext^"), ("tor", "Tor_")):
        argv = [command, str(path), "--from", "k", "--to", "k", "--bound", "3", "--json"]
        assert main(argv) == 0
        dims = json.loads(capsys.readouterr().out)["dimensions"]
        assert [dims[f"{key}{i}"] for i in range(4)] == [1, 2, 4, 8]


@pytest.fixture(scope="module")
def sessions():
    return corpus_sessions()


class TestRunCommand:
    def test_unknown_command(self, sessions):
        with pytest.raises(InputError, match="unknown command"):
            run_command("frobnicate", sessions["R1"])

    def test_unknown_option(self, sessions):
        with pytest.raises(InputError, match="unknown options"):
            run_command("check-ring", sessions["R1"], depth=3)

    def test_report_shape(self, sessions):
        rep = run_command("check-ring", sessions["R1"])
        assert isinstance(rep, Report)
        assert rep.command == "check-ring"
        assert rep.ring == "R1"
        assert rep.millis >= 0
        assert rep.bound == 5

    def test_ext_single_degree(self, sessions):
        rep = run_command("ext", sessions["R1"], src="k", dst="k", i=3)
        assert rep.dimensions == {"Ext^3": 8}

    def test_session_warnings_surface(self, tmp_path):
        from semidual.sessions import parse_session_text
        text = ('[ring]\nfield = 2\nvariables = ["x"]\nrelations = ["x^2"]\n'
                '[module.M]\nkind = "cokernel"\nrows = 1\ncols = 1\n'
                'entries = ["2*x"]\n')
        session = parse_session_text(text)
        rep = run_command("pd", session, module="M")
        assert any(w.startswith("session warning:") for w in rep.witnesses)

    def test_resolve_proper_pc_sizes(self, sessions):
        rep = run_command("resolve", sessions["R1"], module="k",
                          kind="proper-pc", c="D", length=3)
        assert rep.dimensions["sizes"] == [6, 12, 24, 48]
        assert rep.dimensions["proper"] is True

    def test_resolve_injective(self, sessions):
        rep = run_command("resolve", sessions["R1"], module="k",
                          kind="injective", length=4)
        assert rep.dimensions["bass"] == [1, 2, 4, 8, 16]

    def test_relext_proper_only_route(self, sessions):
        rep = run_command("relext", sessions["R1"], c="D", src="k", dst="k",
                          i=2, via="proper")
        assert rep.dimensions["dim"] == 16
        assert "paths_agree" not in rep.dimensions

    @pytest.mark.parametrize("command, opts", [
        ("relext", {"c": "D", "src": "k", "dst": "k", "i": 1}),
        ("relext-ic", {"c": "D", "src": "k", "dst": "k", "i": 1}),
        ("cpd", {"c": "D", "module": "k"}),
        ("cid", {"c": "D", "module": "k"}),
        ("classify", {"c": "D", "module": "k"}),
        ("foxby", {"c": "D", "module": "k", "direction": "hom"}),
        ("resolve", {"c": "D", "module": "k", "kind": "proper-pc"}),
        ("resolve", {"c": "D", "module": "k", "kind": "proper-ic"}),
    ])
    def test_certified_commands_reject_bound_0_on_a_cache_hit(self, sessions, command, opts):
        """A certificate cached at bound 3 does not let bound 0 through."""
        with pytest.raises(InputError, match="semidualizing bound must be >= 1"):
            run_command(command, sessions["R1"], bound=0, **opts)
        run_command(command, sessions["R1"], bound=3, **opts)
        with pytest.raises(InputError, match="semidualizing bound must be >= 1"):
            run_command(command, sessions["R1"], bound=0, **opts)

    def test_cheap_commands_after_cache_clear(self, sessions):
        clear_caches()
        rep = run_command("foxby", sessions["R2"], c="D", module="k",
                          direction="tensor")
        assert rep.dimensions["structural_map_bijective"] is True


class TestReportRendering:
    def test_json_roundtrip_fields(self):
        rep = Report("pd", "R1", "computed", {"pd": "∞"}, ["w"], 5, 12)
        payload = json.loads(rep.to_json())
        assert payload["dimensions"] == {"pd": "∞"}
        assert payload["millis"] == 12

    def test_single_dim_single_witness_inlines(self):
        rep = Report("cpd", "R1", "computed", {"P_C-pd": "∞"},
                     ["Hom(C,M) not free, mu=2"], 5, 3)
        text = rep.to_text()
        assert "P_C-pd = ∞ (witness: Hom(C,M) not free, mu=2)" in text

    def test_bool_and_list_formatting(self):
        rep = Report("x", "R", "computed",
                     {"a": True, "b": [1, 2], "c": None}, [], 5, 0)
        text = rep.to_text()
        assert "a = true" in text
        assert "b = [1, 2]" in text


def test_verify_all_reports_failing_properties(monkeypatch, capsys):
    """A battery check that returns False and one that raises a CheckError
    give a failing verify-all: exit 1, each witness in P order, every other
    P passing, and the three out-of-scope lines last."""
    def broken(*args, **kwargs):
        raise TheoremViolationError("shifted dimensions differ")
    monkeypatch.setattr(semidualizing, "composition_identity_check", lambda C, M: False)
    monkeypatch.setattr(semidualizing, "dimension_shift_check", broken)
    rc = main(["verify-all", data_path("R1.session"), "--bound", "1", "--pairs", "1",
               "--max-dim", "2", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 1 and payload["verdict"] == "fail"
    tags = [f"P{j}" for j in range(1, 11)]
    assert payload["dimensions"] == {
        **{tag: "fail" if tag in ("P4", "P9") else "pass" for tag in tags},
        "out_of_scope_items": 3}
    assert payload["witnesses"] == ["P4 failed", "P9 failed: shifted dimensions differ",
                                    *cli.OUT_OF_SCOPE]
