"""Command surface: markov evolution, verification, reports, config."""

import json
import re

import pytest

from girylab.cli import main

TWO_STATE = {"carrier": ["0", "1"], "generators": [["0"], ["1"]]}

ABSORBING = {
    "dom": TWO_STATE, "cod": TWO_STATE,
    "rows": {"0": {"0": "1/2", "1": "1/2"}, "1": {"1": "1/1"}},
}

DELTA_0 = {"space": TWO_STATE, "weights": {"0": "1/1"}}

FLOAT_PATTERN = re.compile(r"\d+\.\d")


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestMarkov:
    def test_two_steps_final_distribution(self, tmp_path, capsys):
        code = main(["markov", "--kernel", write(tmp_path, "k.json", ABSORBING),
                     "--init", write(tmp_path, "pi.json", DELTA_0),
                     "--steps", "2"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1
        doc = json.loads(lines[0])
        assert doc == {"step": 2, "weights": {"0": "1/4", "1": "3/4"}}

    def test_trace_streams_every_step(self, tmp_path, capsys):
        main(["markov", "--kernel", write(tmp_path, "k.json", ABSORBING),
              "--init", write(tmp_path, "pi.json", DELTA_0),
              "--steps", "3", "--trace"])
        lines = capsys.readouterr().out.strip().splitlines()
        docs = [json.loads(line) for line in lines]
        assert [d["step"] for d in docs] == [0, 1, 2, 3]
        assert docs[0]["weights"] == {"0": "1/1", "1": "0/1"}
        assert docs[3]["weights"] == {"0": "1/8", "1": "7/8"}

    def test_malformed_kernel_names_invariant(self, tmp_path, capsys):
        bad = dict(ABSORBING, rows={"0": {"0": "1/2", "1": "1/3"},
                                    "1": {"1": "1/1"}})
        code = main(["markov", "--kernel", write(tmp_path, "k.json", bad),
                     "--init", write(tmp_path, "pi.json", DELTA_0),
                     "--steps", "1"])
        assert code == 2
        assert "sum to 1/1" in capsys.readouterr().err

    def test_non_endo_kernel_rejected(self, tmp_path, capsys):
        one = {"carrier": ["z"], "generators": []}
        k = {"dom": TWO_STATE, "cod": one,
             "rows": {"0": {"0": "1/1"}, "1": {"0": "1/1"}}}
        code = main(["markov", "--kernel", write(tmp_path, "k.json", k),
                     "--init", write(tmp_path, "pi.json", DELTA_0),
                     "--steps", "1"])
        assert code == 2
        assert "endo-kernel" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        code = main(["markov", "--kernel", str(tmp_path / "nope.json"),
                     "--init", str(tmp_path / "nope2.json"), "--steps", "1"])
        assert code == 2
        assert "does not exist" in capsys.readouterr().err


class TestVerify:
    def test_counterexample_suite_passes(self, capsys):
        code = main(["verify", "counterexample", "--trials", "30",
                     "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        assert doc["result"] == "pass"
        names = {p["property"] for p in doc["properties"]}
        assert "limits-axiom-refuted" in names
        refutation = next(p for p in doc["properties"]
                          if p["property"] == "limits-axiom-refuted")
        assert refutation["witness"]["stuck_at"] == "1/1"

    def test_same_seed_identical_output(self, capsys):
        args = ["verify", "monad-laws", "--trials", "10", "--seed", "7"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        second = capsys.readouterr().out
        assert first == second

    def test_no_floats_anywhere_in_output(self, capsys):
        main(["verify", "all", "--trials", "5", "--seed", "3"])
        out = capsys.readouterr().out
        assert not FLOAT_PATTERN.search(out)

    def test_every_property_carries_a_law(self, capsys):
        main(["verify", "duality", "--trials", "5", "--seed", "3"])
        doc = json.loads(capsys.readouterr().out)
        assert all(p["law"] for p in doc["properties"])

    def test_env_seed_default(self, capsys, monkeypatch):
        monkeypatch.setenv("GIRYLAB_SEED", "99")
        main(["verify", "monad-laws", "--trials", "5"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"]["seed"] == 99

    def test_junit_mirror(self, tmp_path, capsys):
        junit = tmp_path / "out.xml"
        main(["verify", "counterexample", "--trials", "5", "--seed", "1",
              "--junit", str(junit)])
        capsys.readouterr()
        text = junit.read_text()
        assert text.startswith("<?xml")
        assert 'failures="0"' in text

    def test_usage_error_on_unknown_suite(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["verify", "nonsense"])
        assert err.value.code == 2


class TestConfigPrecedence:
    def test_config_file_then_flag(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "girylab.cfg"
        cfg.write_text("trials = 7\nseed = 4\n")
        main(["verify", "monad-laws", "--config", str(cfg)])
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"]["trials"] == 7 and doc["config"]["seed"] == 4

        main(["verify", "monad-laws", "--config", str(cfg), "--trials", "9"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"]["trials"] == 9 and doc["config"]["seed"] == 4

    def test_default_config_file_in_cwd(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "girylab.cfg").write_text("max_carrier = 3\ntrials = 6\n")
        main(["verify", "monad-laws"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"]["max_carrier"] == 3

    def test_unknown_key_named(self, tmp_path, capsys):
        cfg = tmp_path / "girylab.cfg"
        cfg.write_text("wibble = 3\n")
        code = main(["verify", "monad-laws", "--config", str(cfg)])
        assert code == 2
        assert "unknown key" in capsys.readouterr().err

    def test_comments_and_blank_lines(self, tmp_path, capsys):
        cfg = tmp_path / "girylab.cfg"
        cfg.write_text("# comment\n\ntrials = 8  # inline\n")
        main(["verify", "monad-laws", "--config", str(cfg)])
        assert json.loads(capsys.readouterr().out)["config"]["trials"] == 8


class TestUserFunctionalNaturality:
    def test_extensional_streams_passes(self, tmp_path, capsys):
        space = {"carrier": ["a", "b"], "generators": [["a"], ["b"]]}
        phi = {"kind": "extensional",
               "coefficients": {"0": "1/3", "1": "2/3"}}
        code = main(["verify", "naturality",
                     "--space", write(tmp_path, "s.json", space),
                     "--functional", write(tmp_path, "phi.json", phi),
                     "--trials", "25", "--seed", "2"])
        out = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        docs = [json.loads(line) for line in out]
        assert docs[-1]["result"] == "pass"
        assert all(d["result"] == "pass" for d in docs[:-1])

    def test_max_streams_failures_with_witnesses(self, tmp_path, capsys):
        space = {"carrier": ["a", "b"], "generators": [["a"], ["b"]]}
        phi = {"kind": "max"}
        code = main(["verify", "naturality",
                     "--space", write(tmp_path, "s.json", space),
                     "--functional", write(tmp_path, "phi.json", phi),
                     "--trials", "40", "--seed", "2"])
        out = capsys.readouterr().out.strip().splitlines()
        assert code == 1
        docs = [json.loads(line) for line in out]
        failures = [d for d in docs[:-1] if d["result"] == "fail"]
        assert failures
        assert all("h" in d["witness"] and "residual" in d["witness"]
                   for d in failures)
        assert docs[-1]["result"] == "fail"

    def test_functional_requires_naturality_suite(self, tmp_path, capsys):
        phi = {"kind": "max",
               "space": {"carrier": ["a"], "generators": []}}
        code = main(["verify", "duality",
                     "--functional", write(tmp_path, "phi.json", phi)])
        assert code == 2


class TestReport:
    def test_merge_and_exit_codes(self, tmp_path, capsys):
        main(["verify", "counterexample", "--trials", "5", "--seed", "1"])
        good = capsys.readouterr().out
        path = tmp_path / "good.json"
        path.write_text(good)
        code = main(["report", str(path), str(path)])
        merged = json.loads(capsys.readouterr().out)
        assert code == 0
        assert merged["result"] == "pass"
        assert len(merged["reports"]) == 2

    def test_junit_format(self, tmp_path, capsys):
        main(["verify", "counterexample", "--trials", "5", "--seed", "1"])
        path = tmp_path / "r.json"
        path.write_text(capsys.readouterr().out)
        code = main(["report", str(path), "--format", "junit"])
        out = capsys.readouterr().out
        assert code == 0
        assert "<testsuite" in out and "testcase" in out

    def test_non_object_report_named(self, tmp_path, capsys):
        code = main(["report", write(tmp_path, "r.json", [1, 2])])
        assert code == 2
        assert "expected a JSON object" in capsys.readouterr().err
