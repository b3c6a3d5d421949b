"""The determinism guard, pinned.

Recomputes every digest family in
:data:`repro.cluster.determinism.FAMILIES` and compares it, key by key,
against the committed reference
(``benchmarks/results/determinism_hashes.json``).  A failure here means
simulated *behaviour* changed — an event reorder, a float that took a
different path, an RNG consumed at a different point.  If the change
was intentional, regenerate the reference with

    PYTHONPATH=src python -m repro.cluster.determinism \
        --write benchmarks/results/determinism_hashes.json

and say so in the commit message.  If it was not intentional (a
"pure" refactor or performance change), the change is wrong — fix it,
not the reference.

The tests are generated from the table: a family added to ``FAMILIES``
gets its pin test and its seed-coverage test without an edit here, and
``test_reference_families_are_exactly_the_table`` fails until the
reference file has its entry.  Generated names follow the pattern the
suite has always printed (``test_<family>_digest_matches_...``; the
first family, ``seeds``, carries no prefix).
"""

import json

import pytest

from repro.cluster import determinism
from repro.cluster.determinism import (
    CANONICAL_SEEDS,
    FAMILIES,
    REFERENCE_PATH,
    SEED_FAULTS,
    digest,
)


@pytest.fixture(scope="module")
def reference():
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def test_reference_families_are_exactly_the_table(reference):
    assert sorted(reference) == sorted(FAMILIES)


def test_reference_covers_every_canonical_seed(reference):
    assert sorted(reference["seeds"]) == sorted(
        str(s) for s in CANONICAL_SEEDS)
    assert sorted(SEED_FAULTS) == sorted(CANONICAL_SEEDS)


def _covers_test(family):
    def test(reference):
        assert sorted(reference[family]) == sorted(
            str(s) for s in FAMILIES[family].seeds)
    return test


def _pin_test(family):
    # chaos_run: the chaos-derived families reuse the session's runs.
    @pytest.mark.parametrize("seed", FAMILIES[family].seeds)
    def test(seed, reference, chaos_run):
        got = digest(family, seed)
        expected = reference[family][str(seed)]
        # Compare the parts before the whole so a mismatch names the
        # stream that moved (metrics vs ledger vs results).
        for part, value in expected.items():
            assert got.get(part) == value, (
                f"{family} seed {seed}: {part} changed -- simulated "
                f"behaviour is no longer bit-identical to the committed "
                f"reference"
            )
        assert got == expected
        if "max_error" in got:
            # The recorded approximation quality holds, not just the
            # hash: the equivalence check passed inside the committed
            # tolerance tier.
            assert got["equivalence_ok"] is True
            assert got["max_error"] <= got["tolerance_tier"]
    return test


for _family in FAMILIES:
    _prefix = "" if _family == "seeds" else f"{_family}_"
    globals()[f"test_{_prefix}digest_matches_committed_reference"] = (
        _pin_test(_family))
    if _family != "seeds":
        globals()[f"test_{_prefix}reference_covers_every_seed"] = (
            _covers_test(_family))


class TestCheckCommand:
    """``python -m repro.cluster.determinism --check``."""

    def test_default_reference_resolves_from_any_cwd(
            self, tmp_path, monkeypatch, capsys):
        # Regression: the old ``--digests`` flags opened the reference
        # relative to the CWD, after the runs, and died with a traceback
        # anywhere but the repo root.
        monkeypatch.chdir(tmp_path)
        assert determinism.main(["--check", "fabric"]) == 0
        out = capsys.readouterr().out
        assert out.count("fabric digest seed") == 2
        assert "MISMATCH" not in out

    @pytest.mark.parametrize("argv, message", [
        (["--check", "--reference", "/nonexistent"], "cannot read reference"),
        (["--check", "no-such-family"], "unknown digest family"),
    ])
    def test_bad_request_exits_2_before_running_anything(
            self, argv, message, monkeypatch, capsys):
        def never(*_args):
            raise AssertionError("a digest ran before the request was vetted")

        monkeypatch.setattr(determinism, "digest", never)
        assert determinism.main(argv) == 2
        assert message in capsys.readouterr().err

    def test_unparseable_reference_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "reference.json"
        bad.write_text("not json")
        assert determinism.main(
            ["--check", "fabric", "--reference", str(bad)]) == 2
        assert "cannot read reference" in capsys.readouterr().err

    def test_drifted_reference_exits_1(self, tmp_path, capsys):
        with open(REFERENCE_PATH) as fh:
            reference = json.load(fh)
        reference["fabric"]["11"]["combined"] = "0" * 64
        drifted = tmp_path / "reference.json"
        drifted.write_text(json.dumps(reference))
        assert determinism.main(
            ["--check", "fabric", "--reference", str(drifted)]) == 1
        out = capsys.readouterr().out
        assert "fabric digest seed 11: MISMATCH" in out
        assert "fabric digest seed 23: ok" in out
