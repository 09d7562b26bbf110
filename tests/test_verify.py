"""Tests for the verification module's reference tables and suite registry.

The suites themselves are executed end to end by the acceptance tests; here
the focus is the fixed reference data and the `sl2ab verify` dispatch."""

import pytest

from sl2ab import oracle
from sl2ab.abgroup import TRIVIAL_GROUP, AbelianGroup
from sl2ab.cli import EXIT_OK, run
from sl2ab.verify import (
    GE2_RINGS,
    LOCAL_RINGS,
    SUITES,
    cyclotomic_reference,
    quadratic_reference,
    sl2_order_zmod,
    suite_ge2,
    suite_z_inv_n,
)


class TestReferenceTables:
    def test_quadratic_residue_rows(self):
        assert quadratic_reference(5) == TRIVIAL_GROUP
        assert quadratic_reference(73) == AbelianGroup(0, (12, 12))  # 73 = 1 mod 24
        assert quadratic_reference(33) == AbelianGroup(0, (4, 12))
        assert quadratic_reference(13) == AbelianGroup(0, (3, 3))
        assert quadratic_reference(21) == AbelianGroup(0, (3,))
        assert quadratic_reference(17) == AbelianGroup(0, (4, 4))
        assert quadratic_reference(2) == AbelianGroup(0, (2, 2))
        assert quadratic_reference(7) == AbelianGroup(0, (6, 6))
        assert quadratic_reference(3) == AbelianGroup(0, (2, 6))
        assert quadratic_reference(15) == AbelianGroup(0, (2, 6))
        with pytest.raises(ValueError):
            quadratic_reference(12)
        with pytest.raises(ValueError):
            quadratic_reference(1)

    def test_cyclotomic_classification(self):
        assert cyclotomic_reference(1) == AbelianGroup(0, (12,))
        assert cyclotomic_reference(2) == AbelianGroup(0, (12,))
        assert cyclotomic_reference(4) == AbelianGroup(0, (2, 2))
        assert cyclotomic_reference(8) == AbelianGroup(0, (2, 2))
        assert cyclotomic_reference(3) == AbelianGroup(0, (3,))
        assert cyclotomic_reference(9) == AbelianGroup(0, (3,))
        assert cyclotomic_reference(18) == AbelianGroup(0, (3,))  # = Q(zeta_9)
        assert cyclotomic_reference(12) == TRIVIAL_GROUP
        assert cyclotomic_reference(5) == TRIVIAL_GROUP
        assert cyclotomic_reference(24) == TRIVIAL_GROUP
        with pytest.raises(ValueError):
            cyclotomic_reference(0)

    def test_sl2_order_formula(self):
        assert sl2_order_zmod(2) == 6
        assert sl2_order_zmod(3) == 24
        assert sl2_order_zmod(4) == 48
        assert sl2_order_zmod(12) == 1152
        assert sl2_order_zmod(20) == 5760
        with pytest.raises(ValueError):
            sl2_order_zmod(1)

    def test_ring_menagerie_shape(self):
        assert len(LOCAL_RINGS) == 18
        assert [order for _, f in LOCAL_RINGS for order in (f.order,)] == [
            2, 3, 4, 4, 4, 5, 7, 8, 8, 8, 9, 9, 9, 11, 13, 16, 16, 16,
        ]
        assert len(GE2_RINGS) == 20
        assert [name for name, _ in GE2_RINGS[-2:]] == ["Z/6", "Z/12"]


class TestSuiteRunner:
    def test_registry(self):
        assert list(SUITES) == [
            "quadratic-table",
            "cyclotomic-table",
            "z-inv-n",
            "oracle-local",
            "ge2",
            "product-lemma",
        ]

    def test_z_inv_n_suite_green(self):
        cases = suite_z_inv_n()
        assert len(cases) == 9
        assert all(c.ok for c in cases)
        names = [c.name for c in cases]
        assert any("Z[1/30]" in name for name in names)

    def test_verify_one_suite(self, capsys):
        assert run(["verify", "z-inv-n"]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "suite z-inv-n:"
        assert len(out) == 11  # header, 9 cases, summary
        assert all(line.startswith("  PASS ") for line in out[1:-1])
        assert out[-1] == "9/9 passed, 0 failed"

    def test_run_all_concatenates(self, capsys):
        sizes = {name: len(fn()) for name, fn in SUITES.items()}
        assert run(["verify", "all"]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        headers = [line for line in out if line.startswith("suite ")]
        assert headers == [f"suite {name}:" for name in SUITES]
        total = sum(sizes.values())
        assert out[-1] == f"{total}/{total} passed, 0 failed"

    def test_ge2_detail(self):
        cases = suite_ge2()
        assert len(cases) == 20 and all(c.ok for c in cases)
        assert cases[1].name == "SL2(F_3)"
        assert cases[1].detail == (
            "direct 24 element(s) | orbit 8 column(s) x 3 = 24"
        )

    def test_ge2_reports_failures(self, monkeypatch):
        # with the walk reporting one column short, |orbit| |R| falls short
        # of the direct count, so every ring fails, as rows, without raising
        walk = oracle.FiniteRing.sl2_orbit

        def one_short(ring):
            size, relations = walk(ring)
            return size - 1, relations

        monkeypatch.setattr(oracle.FiniteRing, "sl2_orbit", one_short)
        cases = suite_ge2()
        assert len(cases) == 20 and not any(c.ok for c in cases)
        assert cases[1].detail == (
            "direct 24 element(s) | orbit 7 column(s) x 3 = 21"
        )
