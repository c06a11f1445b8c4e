import csv
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from gscsim import (
    RelianceMatrix,
    TableFormatError,
    WorldIOTable,
    compute_fir,
    compute_fmr,
    leontief_inverse,
    load_table,
    reliance_change,
    technical_coefficients,
    write_table,
)
from gscsim import iotables
from gscsim.cli import main
from gscsim.iotables import FD_PREFIX, OUT_LABEL, VA_LABEL


def two_country_table() -> WorldIOTable:
    # ALP buys 0.4 per unit of output from BET; BET buys nothing abroad.
    # Value-added shares are then 0.6 and 1.0.
    return WorldIOTable(countries=["ALP", "BET"], sectors=["MFG"],
                        Z=np.array([[0.0, 0.0], [40.0, 0.0]]),
                        F=np.array([[100.0, 0.0], [0.0, 10.0]]),
                        v=np.array([60.0, 50.0]),
                        x=np.array([100.0, 50.0]))


def single_sector_table() -> WorldIOTable:
    # one closed economy with input coefficient 0.5
    return WorldIOTable(countries=["SOLO"], sectors=["MFG"],
                        Z=np.array([[1.0]]), F=np.array([[1.0]]),
                        v=np.array([1.0]), x=np.array([2.0]))


def random_balanced_table(rng, countries, sectors) -> WorldIOTable:
    """Exactly balanced synthetic table with a productive A matrix."""
    C, S = len(countries), len(sectors)
    n = C * S
    A = rng.uniform(0.0, 1.0, size=(n, n))
    A *= rng.uniform(0.3, 0.6) / A.sum(axis=0)     # column sums below 0.6
    F = rng.uniform(0.5, 2.0, size=(n, C))
    x = np.linalg.solve(np.eye(n) - A, F.sum(axis=1))
    Z = A * x[None, :]
    v = x - Z.sum(axis=0)
    return WorldIOTable(countries=list(countries), sectors=list(sectors),
                        Z=Z, F=F, v=v, x=x)


# ---------------------------------------------------------------------------
# coefficients and Leontief inverse

def test_single_sector_leontief_frozen():
    table = single_sector_table()
    np.testing.assert_allclose(technical_coefficients(table), [[0.5]])
    np.testing.assert_allclose(leontief_inverse(table), [[2.0]], rtol=1e-14)


def test_two_country_coefficients_frozen():
    table = two_country_table()
    np.testing.assert_allclose(technical_coefficients(table),
                               [[0.0, 0.0], [0.4, 0.0]], atol=1e-15)
    np.testing.assert_allclose(leontief_inverse(table),
                               [[1.0, 0.0], [0.4, 1.0]], atol=1e-14)


def test_leontief_matches_power_series():
    rng = np.random.default_rng(13)
    table = random_balanced_table(rng, ["AAA", "BBB", "CCC"], ["MFG", "SRV"])
    A = technical_coefficients(table)
    series = np.eye(A.shape[0])
    term = np.eye(A.shape[0])
    for _ in range(50):
        term = term @ A
        series += term
    np.testing.assert_allclose(leontief_inverse(table), series, atol=1e-8)


def test_leontief_residual_is_tight():
    rng = np.random.default_rng(14)
    table = random_balanced_table(rng, ["AAA", "BBB"], ["MFG", "SRV", "AGR"])
    B = leontief_inverse(table)
    n = B.shape[0]
    residual = np.max(np.abs(B @ (np.eye(n) - technical_coefficients(table)) - np.eye(n)))
    assert residual < 1e-10


def test_leontief_residual_guard(monkeypatch):
    # Which near-singular tables leave a residual above the tolerance
    # depends on the LAPACK build, so the tolerance goes below any residual.
    monkeypatch.setattr(iotables, "LEONTIEF_RESIDUAL_TOL", -1.0)
    with pytest.raises(TableFormatError,
                       match=r"^Leontief inverse residual \S+ exceeds tolerance$"):
        leontief_inverse(two_country_table())


def test_non_productive_table_rejected():
    # self-input of 1.2 per unit of output cannot balance: caught either at
    # accounting validation or at inversion, both as TableFormatError
    with pytest.raises(TableFormatError):
        table = WorldIOTable(countries=["SOLO"], sectors=["MFG"],
                             Z=np.array([[12.0]]), F=np.array([[1.0]]),
                             v=np.array([-2.0]), x=np.array([10.0]))
        leontief_inverse(table)


def test_cyclic_non_productive_coefficients_rejected():
    # The 3-cycle has spectral radius 2.25 ** (1/3) = 1.04, yet power
    # iteration from a uniform start settles near 0.70.  No balanced table
    # with nonnegative final demand has such coefficients, so the flows are
    # swapped in after validation.
    A = np.array([[0.0, 0.5, 0.0], [0.0, 0.0, 0.5], [4.5, 0.0, 0.0]])
    rng = np.random.default_rng(16)
    table = random_balanced_table(rng, ["AAA", "BBB", "CCC"], ["MFG"])
    table.Z = A * table.x[None, :]
    np.testing.assert_allclose(technical_coefficients(table), A, rtol=1e-15)
    with pytest.raises(TableFormatError, match="not productive"):
        leontief_inverse(table)


def test_productive_table_past_the_sum_bounds_accepted():
    # Column and row sums both exceed one, but the spectral radius is
    # sqrt(0.4 * 1.5) = 0.77: the exact nonnegative-inverse test accepts it.
    A = np.array([[0.0, 0.4], [1.5, 0.0]])
    table = two_country_table()
    table.Z = A * table.x[None, :]
    B = leontief_inverse(table)
    np.testing.assert_allclose(B, np.linalg.inv(np.eye(2) - A), rtol=1e-14)
    assert B.min() >= 0.0


@pytest.mark.parametrize("a,productive", ((3.9, True), (3.999, True),
                                          (4.0, False), (4.001, False)))
def test_three_cycle_productivity_boundary(a, productive):
    # det(I - A) = 1 - a / 4 and the spectral radius is (a / 4) ** (1/3), so
    # A is productive exactly below a = 4; past one, both sum bounds are a.
    A = np.array([[0.0, 0.5, 0.0], [0.0, 0.0, 0.5], [a, 0.0, 0.0]])
    rng = np.random.default_rng(16)
    table = random_balanced_table(rng, ["AAA", "BBB", "CCC"], ["MFG"])
    table.Z = A * table.x[None, :]
    if productive:
        np.testing.assert_allclose(leontief_inverse(table),
                                   np.linalg.inv(np.eye(3) - A), rtol=1e-9)
        for compute in (compute_fir, compute_fmr):
            assert np.isfinite(compute(table, "MFG").domestic).all()
    else:
        for call in (leontief_inverse, lambda t: compute_fir(t, "MFG"),
                     lambda t: compute_fmr(t, "MFG", measure="gross")):
            with pytest.raises(TableFormatError, match="not productive"):
                call(table)


@pytest.mark.parametrize("a", (4.0 - 1e-5, 4.0 - 1e-8, 4.0 - 1e-10))
def test_three_cycle_near_the_boundary_is_accepted(a):
    # The residual of an accurate solve grows with B, so an absolute bound
    # refused these productive tables or not, depending on LU rounding.
    A = np.array([[0.0, 0.5, 0.0], [0.0, 0.0, 0.5], [a, 0.0, 0.0]])
    rng = np.random.default_rng(16)
    table = random_balanced_table(rng, ["AAA", "BBB", "CCC"], ["MFG"])
    table.Z = A * table.x[None, :]
    # A**3 = (a / 4) I, so (I - A)^-1 = (I + A + A**2) / (1 - a / 4); the
    # solve's relative error may grow like the condition number, ~16 / (4 - a).
    np.testing.assert_allclose(leontief_inverse(table),
                               (np.eye(3) + A + A @ A) / (1.0 - a / 4.0),
                               rtol=1e-14 / (4.0 - a))
    assert np.isfinite(compute_fir(table, "MFG").domestic).all()
    assert np.isfinite(compute_fmr(table, "MFG", measure="gross").domestic).all()


def reference_shares(table, target_sector, measure, metric):
    """Per-country share vectors read off the full inverse, as computed
    before only the target columns were solved for."""
    B = leontief_inverse(table)
    if measure == "va":
        shares = np.zeros_like(table.x)
        np.divide(table.v, table.x, out=shares, where=table.x > 0.0)
        content = shares[:, None] * B
    else:
        content = B - np.eye(B.shape[0])
    target_cols = np.array([table.index(c, target_sector) for c in table.countries])
    C, S = len(table.countries), len(table.sectors)
    out = []
    for c, country in enumerate(table.countries):
        if metric == "fir":
            col = content[:, table.index(country, target_sector)]
            by_country = col.reshape(C, S).sum(axis=1)
            out.append(by_country / by_country.sum() if measure == "gross"
                       else by_country)
        else:
            absorbed = (content[c * S:(c + 1) * S][:, target_cols].sum(axis=0)
                        * table.x[target_cols])
            out.append(absorbed / absorbed.sum())
    return 100.0 * np.array(out)


def assert_matches_full_inverse(table, target_sector, focus=None):
    """Bit-for-bit against the reference, laid out one focus row at a time:
    partners in focus order, NaN on the diagonal, the rest summed into ROW."""
    rows = [table.countries.index(c) for c in (focus or table.countries)]
    rest = [k for k in range(len(table.countries)) if k not in rows]
    for measure in ("va", "gross"):
        for metric, compute in (("fir", compute_fir), ("fmr", compute_fmr)):
            got = compute(table, target_sector, focus=focus, measure=measure)
            ref = reference_shares(table, target_sector, measure, metric)
            want = np.full((len(rows), len(rows) + bool(rest)), np.nan)
            for i, r in enumerate(rows):
                for j, partner in enumerate(rows):
                    if j != i:
                        want[i, j] = ref[r, partner]
                if rest:
                    want[i, -1] = ref[r][rest].sum()
            assert np.array_equal(got.values, want, equal_nan=True), (metric, measure)
            assert np.array_equal(got.domestic, ref[rows, rows]), (metric, measure)


def solve_widths(table, compute, measure) -> list:
    """Right-hand-side counts of the np.linalg.solve calls of one metric."""
    widths = []
    solve = np.linalg.solve

    def spy(a, b):
        widths.append(b.shape[1])
        return solve(a, b)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "solve", spy)
        compute(table, "MFG", measure=measure)
    return widths


def test_target_columns_match_full_inverse():
    rng = np.random.default_rng(21)
    for countries, sectors in ((["AAA", "BBB"], ["MFG"]),
                               (["AAA", "BBB", "CCC"], ["SRV", "MFG"]),
                               (["AAA", "BBB", "CCC", "DDD"], ["AGR", "MFG", "SRV"]),
                               # numpy sums blocks of 8 or more pairwise
                               (["AAA", "BBB", "CCC"], ["MFG"] + [f"S{k}" for k in range(12)])):
        for _ in range(3):
            table = random_balanced_table(rng, countries, sectors)
            assert_matches_full_inverse(table, "MFG")
            # one solve: the C target columns plus the ones column
            for compute in (compute_fir, compute_fmr):
                for measure in ("va", "gross"):
                    assert solve_widths(table, compute, measure) == [len(countries) + 1]


def test_target_columns_past_the_sum_bounds():
    table = two_country_table()
    table.Z = np.array([[0.0, 0.4], [1.5, 0.0]]) * table.x[None, :]
    assert_matches_full_inverse(table, "MFG")
    # The same coupling between the MFG sectors, plus a small SRV block:
    # both sum bounds still reach 1.5, yet no full inverse is formed.
    rng = np.random.default_rng(23)
    table = random_balanced_table(rng, ["AAA", "BBB"], ["MFG", "SRV"])
    A = np.diag([0.0, 0.1, 0.0, 0.1])
    A[0, 2], A[2, 0] = 0.4, 1.5
    table.Z = A * table.x[None, :]
    assert_matches_full_inverse(table, "MFG")
    for compute in (compute_fir, compute_fmr):
        assert solve_widths(table, compute, "va") == [3]
    rng = np.random.default_rng(16)
    cyclic = random_balanced_table(rng, ["AAA", "BBB", "CCC"], ["MFG"])
    cyclic.Z = np.array([[0.0, 0.5, 0.0], [0.0, 0.0, 0.5],
                         [4.5, 0.0, 0.0]]) * cyclic.x[None, :]
    with pytest.raises(TableFormatError, match="not productive"):
        compute_fir(cyclic, "MFG")


def test_rest_of_world_column_matches_full_inverse():
    # With twelve countries a ROW cell sums eight or nine partners, so numpy
    # sums it pairwise and the order of the additions shows in the bits.
    rng = np.random.default_rng(24)
    countries = [f"C{k:02d}" for k in range(12)]
    for sectors in (["MFG"], ["SRV", "MFG", "AGR"]):
        table = random_balanced_table(rng, countries, sectors)
        for focus in (countries[:3], countries[9:6:-1], countries[::3], [countries[5]]):
            assert_matches_full_inverse(table, "MFG", focus)


# ---------------------------------------------------------------------------
# reliance metrics on the frozen two-country case

def test_fir_frozen_two_country():
    fir = compute_fir(two_country_table(), "MFG")
    assert fir.metric == "fir" and fir.measure == "va"
    assert fir.partner_share("ALP", "BET") == pytest.approx(40.0, abs=1e-9)
    assert fir.partner_share("ALP", "ALP") == pytest.approx(60.0, abs=1e-9)
    assert fir.partner_share("BET", "ALP") == pytest.approx(0.0, abs=1e-12)
    assert fir.partner_share("BET", "BET") == pytest.approx(100.0, abs=1e-9)
    assert fir.row_total("ALP") == pytest.approx(100.0, abs=1e-9)
    assert np.isnan(fir.values[0, 0]) and np.isnan(fir.values[1, 1])


def test_fmr_frozen_two_country():
    fmr = compute_fmr(two_country_table(), "MFG")
    # BET's MFG-linked value added: 40 absorbed by ALP, 50 at home
    assert fmr.partner_share("BET", "ALP") == pytest.approx(4000.0 / 90.0, rel=1e-12)
    assert fmr.partner_share("BET", "BET") == pytest.approx(5000.0 / 90.0, rel=1e-12)
    assert fmr.partner_share("ALP", "BET") == pytest.approx(0.0, abs=1e-12)
    assert fmr.row_total("BET") == pytest.approx(100.0, abs=1e-9)


# ---------------------------------------------------------------------------
# completeness and aggregation on random balanced tables

def test_fir_rows_complete():
    rng = np.random.default_rng(15)
    table = random_balanced_table(rng, ["AAA", "BBB", "CCC"], ["MFG", "SRV"])
    for measure in ("va", "gross"):
        fir = compute_fir(table, "MFG", measure=measure)
        for c in table.countries:
            assert fir.row_total(c) == pytest.approx(100.0, abs=1e-8)
        assert np.all(fir.domestic > 0.0)


def test_fmr_rows_complete():
    rng = np.random.default_rng(16)
    table = random_balanced_table(rng, ["AAA", "BBB", "CCC"], ["MFG", "SRV"])
    fmr = compute_fmr(table, "SRV")
    for c in table.countries:
        assert fmr.row_total(c) == pytest.approx(100.0, abs=1e-8)


def test_measures_disagree_in_general():
    rng = np.random.default_rng(17)
    table = random_balanced_table(rng, ["AAA", "BBB"], ["MFG", "SRV"])
    va = compute_fir(table, "MFG", measure="va")
    gross = compute_fir(table, "MFG", measure="gross")
    assert abs(va.partner_share("AAA", "BBB")
               - gross.partner_share("AAA", "BBB")) > 1e-6
    with pytest.raises(ValueError):
        compute_fir(table, "MFG", measure="net")


def test_focus_aggregates_rest_of_world():
    rng = np.random.default_rng(18)
    table = random_balanced_table(rng, ["AAA", "BBB", "CCC", "DDD"], ["MFG"])
    full = compute_fir(table, "MFG")
    sub = compute_fir(table, "MFG", focus=["AAA", "BBB"])
    assert sub.rows == ["AAA", "BBB"]
    assert sub.columns == ["AAA", "BBB", "ROW"]
    merged = full.partner_share("AAA", "CCC") + full.partner_share("AAA", "DDD")
    assert sub.partner_share("AAA", "ROW") == pytest.approx(merged, rel=1e-12)
    assert sub.partner_share("AAA", "BBB") == pytest.approx(
        full.partner_share("AAA", "BBB"), rel=1e-12)
    assert sub.row_total("AAA") == pytest.approx(100.0, abs=1e-8)
    with pytest.raises(ValueError):
        compute_fir(table, "MFG", focus=["AAA", "XXX"])
    with pytest.raises(ValueError):
        compute_fir(table, "MFG", focus=["AAA", "AAA"])


def test_string_focus_is_one_country():
    # A string used to be split into characters, so "AB" read as A and B.
    rng = np.random.default_rng(19)
    table = random_balanced_table(rng, ["USA", "CAN", "MEX"], ["MFG", "SRV"])
    for compute in (compute_fir, compute_fmr):
        for measure in ("va", "gross"):
            one = compute(table, "MFG", focus="USA", measure=measure)
            listed = compute(table, "MFG", focus=["USA"], measure=measure)
            assert one.rows == listed.rows == ["USA"]
            assert one.columns == listed.columns
            assert one.values.tobytes() == listed.values.tobytes()
            assert one.domestic.tobytes() == listed.domestic.tobytes()
    letters = random_balanced_table(rng, ["A", "B", "C"], ["MFG"])
    with pytest.raises(ValueError, match="^focus countries not in table: AB$"):
        compute_fir(letters, "MFG", focus="AB")


def test_target_sector_checked():
    with pytest.raises(ValueError, match="target sector"):
        compute_fir(two_country_table(), "SRV")


@pytest.mark.parametrize("compute", (compute_fir, compute_fmr))
@pytest.mark.parametrize("kw,message", [
    ({"measure": "bogus"}, "^measure must be 'va' or 'gross', got 'bogus'$"),
    ({"focus": ["ALP", "ZZZ"]}, "^focus countries not in table: ZZZ$"),
    ({"focus": ["ALP", "ALP"]}, "^focus countries must be unique$"),
], ids=("measure", "unknown-focus", "repeated-focus"))
def test_reliance_checks_its_inputs_before_the_solve(monkeypatch, compute, kw, message):
    def no_solve(*args, **kwargs):
        raise AssertionError("Leontief solve called")
    monkeypatch.setattr(iotables, "_leontief_columns", no_solve)
    with pytest.raises(ValueError, match=message):
        compute(two_country_table(), "MFG", **kw)


# ---------------------------------------------------------------------------
# differences between two periods

def test_reliance_change():
    rng = np.random.default_rng(19)
    before_table = random_balanced_table(rng, ["AAA", "BBB"], ["MFG"])
    after_table = random_balanced_table(rng, ["AAA", "BBB"], ["MFG"])
    before = compute_fir(before_table, "MFG")
    after = compute_fir(after_table, "MFG")
    delta = reliance_change(after, before)
    assert delta.metric == "fir_change"
    assert delta.partner_share("AAA", "BBB") == pytest.approx(
        after.partner_share("AAA", "BBB") - before.partner_share("AAA", "BBB"),
        rel=1e-12)
    with pytest.raises(ValueError):
        reliance_change(after, compute_fmr(before_table, "MFG"))


# ---------------------------------------------------------------------------
# accounting validation

def test_unbalanced_row_reported():
    with pytest.raises(TableFormatError, match="ALP:MFG"):
        WorldIOTable(countries=["ALP", "BET"], sectors=["MFG"],
                     Z=np.array([[0.0, 0.0], [40.0, 0.0]]),
                     F=np.array([[90.0, 0.0], [0.0, 10.0]]),   # uses 90 != 100
                     v=np.array([60.0, 50.0]),
                     x=np.array([100.0, 50.0]))


def test_wrong_value_added_reported():
    with pytest.raises(TableFormatError, match="value added"):
        WorldIOTable(countries=["ALP", "BET"], sectors=["MFG"],
                     Z=np.array([[0.0, 0.0], [40.0, 0.0]]),
                     F=np.array([[100.0, 0.0], [0.0, 10.0]]),
                     v=np.array([10.0, 50.0]),
                     x=np.array([100.0, 50.0]))


def test_zero_output_row_must_be_empty():
    # a genuinely absent industry is fine
    table = WorldIOTable(countries=["ALP", "BET"], sectors=["MFG"],
                         Z=np.array([[0.0, 0.0], [0.0, 0.0]]),
                         F=np.array([[100.0, 0.0], [0.0, 0.0]]),
                         v=np.array([100.0, 0.0]),
                         x=np.array([100.0, 0.0]))
    assert technical_coefficients(table)[1, 1] == 0.0
    # but hidden flows through a zero-output industry are not
    with pytest.raises(TableFormatError, match="zero output"):
        WorldIOTable(countries=["ALP", "BET"], sectors=["MFG"],
                     Z=np.array([[0.0, 0.0], [100.0, 0.0]]),
                     F=np.array([[0.0, 0.0], [0.0, 0.0]]),
                     v=np.array([0.0, 0.0]),
                     x=np.array([100.0, 0.0]))


def test_negative_flows_rejected():
    with pytest.raises(TableFormatError):
        WorldIOTable(countries=["SOLO"], sectors=["MFG"],
                     Z=np.array([[-1.0]]), F=np.array([[3.0]]),
                     v=np.array([3.0]), x=np.array([2.0]))


# ---------------------------------------------------------------------------
# CSV round trip and format errors

def test_write_load_round_trip(tmp_path):
    rng = np.random.default_rng(20)
    table = random_balanced_table(rng, ["AAA", "BBB", "CCC"], ["MFG", "SRV"])
    path = tmp_path / "table.csv"
    write_table(table, path)
    clone = load_table(path)
    assert clone.countries == table.countries
    assert clone.sectors == table.sectors
    np.testing.assert_array_equal(clone.Z, table.Z)    # repr round-trips exactly
    np.testing.assert_array_equal(clone.F, table.F)
    np.testing.assert_array_equal(clone.v, table.v)
    np.testing.assert_array_equal(clone.x, table.x)


def test_load_errors_name_the_problem(tmp_path):
    good = ("table,AAA:MFG,BBB:MFG,FD:AAA,FD:BBB\n"
            "AAA:MFG,0.0,0.0,100.0,0.0\n"
            "BBB:MFG,40.0,0.0,0.0,10.0\n"
            "VA,60.0,50.0,,\n"
            "OUT,100.0,50.0,,\n")
    path = tmp_path / "good.csv"
    path.write_text(good)
    table = load_table(path)
    assert table.countries == ["AAA", "BBB"]

    cases = {
        "no_out.csv": (good.replace("OUT,100.0,50.0,,\n", ""), "VA and OUT"),
        "bad_header.csv": (good.replace("BBB:MFG,FD", "BBBMFG,FD"), "malformed column header"),
        "short_row.csv": (good.replace("BBB:MFG,40.0,0.0,0.0,10.0", "BBB:MFG,40.0,0.0,0.0"), "expected"),
        "bad_number.csv": (good.replace("40.0", "forty"), "BBB:MFG"),
        "missing_row.csv": (good.replace("BBB:MFG,40.0,0.0,0.0,10.0\n", ""), "missing rows"),
    }
    for name, (text, needle) in cases.items():
        bad = tmp_path / name
        bad.write_text(text)
        with pytest.raises(TableFormatError, match=needle):
            load_table(bad)


GOOD_TABLE = ("table,AAA:MFG,BBB:MFG,FD:AAA,FD:BBB\n"
              "AAA:MFG,0.0,0.0,100.0,0.0\n"
              "BBB:MFG,40.0,0.0,0.0,10.0\n"
              "VA,60.0,50.0,,\n"
              "OUT,100.0,50.0,,\n")


def test_load_rejects_malformed_rows(tmp_path):
    good = GOOD_TABLE
    cases = {
        "dup_row.csv": (good.replace("VA,", "BBB:MFG,40.0,0.0,0.0,10.0\nVA,"),
                        "duplicate row BBB:MFG"),
        "stray_row.csv": (good.replace("VA,", "CCC:MFG,0.0,0.0,0.0,0.0\nVA,"),
                          "row CCC:MFG is not a column"),
        "dup_va.csv": (good.replace("OUT,", "VA,60.0,50.0,,\nOUT,"), "duplicate row VA"),
        "dup_out.csv": (good + "OUT,100.0,50.0,,\n", "duplicate row OUT"),
        "va_fd.csv": (good.replace("VA,60.0,50.0,,", "VA,60.0,50.0,1.0,"),
                      "row VA has final demand"),
        "out_fd.csv": (good.replace("OUT,100.0,50.0,,", "OUT,100.0,50.0,,0"),
                       "row OUT has final demand"),
        "out_nan.csv": (good.replace("OUT,100.0", "OUT,nan"), "non-finite"),
    }
    for name, (text, needle) in cases.items():
        bad = tmp_path / name
        bad.write_text(text)
        with pytest.raises(TableFormatError, match=needle):
            load_table(bad)


def reference_load_table(path) -> WorldIOTable:
    """The per-cell loader: csv.reader, then float() on every stripped cell."""
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row and any(cell.strip() for cell in row)]
    if len(rows) < 4:
        raise TableFormatError(f"{path}: too few rows for an IO table")
    header = [cell.strip() for cell in rows[0]]
    flow_labels = []
    fd_countries = []
    for cell in header[1:]:
        if cell.startswith(f"{FD_PREFIX}:"):
            fd_countries.append(cell.split(":", 1)[1])
        elif ":" in cell:
            if fd_countries:
                raise TableFormatError(
                    f"{path}: flow column {cell!r} after final demand block")
            flow_labels.append(tuple(cell.split(":", 1)))
        else:
            raise TableFormatError(f"{path}: malformed column header {cell!r}")
    countries = list(dict.fromkeys(c for c, _ in flow_labels))
    sectors = list(dict.fromkeys(s for _, s in flow_labels))
    expect = [(c, s) for c in countries for s in sectors]
    if flow_labels != expect:
        raise TableFormatError(
            f"{path}: columns must nest sectors within country blocks")
    if fd_countries != countries:
        raise TableFormatError(
            f"{path}: final demand columns must cover every country in order")

    n = len(flow_labels)
    body = {}
    va_row = out_row = None
    for row in rows[1:]:
        label = row[0].strip()
        cells = [cell.strip() for cell in row[1:]]
        if label in (VA_LABEL, OUT_LABEL):
            if len(cells) < n:
                raise TableFormatError(f"{path}: row {label} is too short")
            try:
                vals = np.array([float(c) for c in cells[:n]])
            except ValueError as err:
                raise TableFormatError(f"{path}: row {label}: {err}") from None
            if label == VA_LABEL:
                va_row = vals
            else:
                out_row = vals
            continue
        if ":" not in label:
            raise TableFormatError(f"{path}: unexpected row label {label!r}")
        if len(cells) != n + len(countries):
            raise TableFormatError(
                f"{path}: row {label} has {len(cells)} cells, "
                f"expected {n + len(countries)}")
        try:
            body[tuple(label.split(":", 1))] = np.array([float(c) for c in cells])
        except ValueError as err:
            raise TableFormatError(f"{path}: row {label}: {err}") from None

    missing = [f"{c}:{s}" for (c, s) in expect if (c, s) not in body]
    if missing:
        raise TableFormatError(f"{path}: missing rows: {', '.join(missing)}")
    if va_row is None or out_row is None:
        raise TableFormatError(f"{path}: VA and OUT rows are required")

    data = np.vstack([body[key] for key in expect])
    return WorldIOTable(countries=countries, sectors=sectors,
                        Z=data[:, :n], F=data[:, n:], v=va_row, x=out_row)


def loader_inputs(tmp_path) -> dict:
    """Table texts that cover the fast path and every way out of it."""
    rng = np.random.default_rng(22)
    texts = {}
    for k, (countries, sectors) in enumerate(((["AAA", "BBB"], ["MFG"]),
                                              (["AAA", "BBB", "CCC"], ["MFG", "SRV"]),
                                              (["A", "B", "C", "D"], ["M,FG", "S\nRV"]))):
        path = tmp_path / f"round_trip_{k}.csv"
        write_table(random_balanced_table(rng, countries, sectors), path)
        with open(path, newline="") as fh:
            texts[f"round_trip_{k}"] = fh.read()
    text = texts["round_trip_1"]
    lines = text.splitlines(keepends=True)
    body = lines[1]
    label, first, rest = body.split(",", 2)
    texts.update({
        "padded": text.replace(",", " ,\t"),
        "unbalanced_quote": text.replace(",0.", ',"0.', 1),
        "quoted_numbers": lines[0] + "".join(
            ",".join(f'"{c}"' for c in ln.rstrip("\r\n").split(",")) + "\n"
            for ln in lines[1:]),
        "crlf": text.replace("\r\n", "\n").replace("\n", "\r\n"),
        "cr": text.replace("\r\n", "\n").replace("\n", "\r"),
        "blank_lines": "\n".join(lines[:2]) + "\n" + ",,,\n \t\n , ,\n" + "".join(lines[2:]),
        "underscore": text.replace(body, f"{label},{first[:3]}_{first[3:]},{rest}"),
        "body_nan": text.replace(body, f"{label},nan,{rest}"),
        "body_inf": text.replace(body, f"{label},inf,{rest}"),
        "nan_parens": text.replace(body, f"{label},nan(1),{rest}"),
        "blank_cell": text.replace(body, f"{label}, ,{rest}"),
        "negative": text.replace(body, f"{label},-{first},{rest}"),
        "trailing_comma": text.replace(body, body.rstrip("\r\n") + ",\n"),
        "trailing_comma_at_end": text.replace(body, "") + body.rstrip("\r\n") + ",",
        "quoted_labels": "".join(
            f'"{ln.split(",", 1)[0]}",{ln.split(",", 1)[1]}' for ln in lines),
        "two_numbers_in_cell": text.replace(body, f"{label},{first} 1,{rest}"),
        "no_comma_line": text.replace(body, "AAA:MFG\n"),
        "too_few_rows": "BADHEADER\nVA,1\n",
        "empty": "",
    })
    va = next(ln for ln in lines if ln.startswith("VA,"))
    texts["va_inf"] = text.replace(va, "VA,inf," + va.split(",", 2)[2])
    # test_load_errors_name_the_problem's table and its malformed cases
    texts.update({
        "good": GOOD_TABLE,
        "no_out": GOOD_TABLE.replace("OUT,100.0,50.0,,\n", ""),
        "bad_header": GOOD_TABLE.replace("BBB:MFG,FD", "BBBMFG,FD"),
        "short_row": GOOD_TABLE.replace("BBB:MFG,40.0,0.0,0.0,10.0", "BBB:MFG,40.0,0.0,0.0"),
        "bad_number": GOOD_TABLE.replace("40.0", "forty"),
        "missing_row": GOOD_TABLE.replace("BBB:MFG,40.0,0.0,0.0,10.0\n", ""),
        "short_va": GOOD_TABLE.replace("VA,60.0,50.0,,", "VA,60.0"),
        "unlabelled_row": GOOD_TABLE.replace("VA,", "TOTAL,100.0,50.0,100.0,10.0\nVA,"),
    })
    # Header layouts, each on GOOD_TABLE's rows.
    header, rows = GOOD_TABLE.split("\n", 1)
    for name, layout in (("flow_after_fd", "table,AAA:MFG,FD:AAA,BBB:MFG,FD:BBB"),
                         ("sectors_not_nested", "table,AAA:MFG,BBB:MFG,AAA:SRV,FD:AAA,FD:BBB"),
                         ("fd_out_of_order", "table,AAA:MFG,BBB:MFG,FD:BBB,FD:AAA")):
        texts[name] = f"{layout}\n{rows}"
    return texts


def test_loader_matches_per_cell_reference(tmp_path):
    for name, text in loader_inputs(tmp_path).items():
        path = tmp_path / f"{name}.csv"
        with open(path, "w", newline="") as fh:
            fh.write(text)
        try:
            ref = reference_load_table(path)
        except TableFormatError as err:
            with pytest.raises(TableFormatError) as got:
                load_table(path)
            assert str(got.value) == str(err), name
            continue
        table = load_table(path)
        assert (table.countries, table.sectors) == (ref.countries, ref.sectors), name
        for attr in ("Z", "F", "v", "x"):
            assert getattr(table, attr).tobytes() == getattr(ref, attr).tobytes(), (name, attr)


# ---------------------------------------------------------------------------
# rows parsed in forked workers

def assert_no_child():
    """This process has no child left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def count_workers(monkeypatch, cpus: int, min_slice: int = 1) -> list:
    """Set the usable CPUs and the slice size; returns a list that gets the
    number of workers each later load starts."""
    monkeypatch.setattr(iotables, "MIN_SLICE_ROWS", min_slice)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    started = []
    fork = iotables._Lines.fork

    def counted(self, *args):
        fork(self, *args)
        started.append(len(self.workers))

    monkeypatch.setattr(iotables._Lines, "fork", counted)
    return started


@pytest.mark.parametrize("cpus", (2, 3, 1000))
def test_parallel_loader_matches_per_cell_reference(tmp_path, monkeypatch, cpus):
    # With 1000 CPUs each row after the first three gets a slice of its
    # own, so slices start on nearly every line: inside quoted multi-line
    # labels, on blank lines, and with CR or CRLF line ends.  Rows labelled
    # S\nRV between plain MFG rows would take the wrong worker's cells if
    # a line pulled by csv.reader went uncounted.
    texts = loader_inputs(tmp_path)
    path = tmp_path / "multiline_labels.csv"
    write_table(random_balanced_table(np.random.default_rng(23), ["A", "B", "C", "D"],
                                      ["MFG", "S\nRV"]), path)
    texts["multiline_labels"] = path.read_text()
    started = count_workers(monkeypatch, cpus)
    for name, text in texts.items():
        path = tmp_path / f"{name}.csv"
        with open(path, "w", newline="") as fh:
            fh.write(text)
        try:
            ref = reference_load_table(path)
        except TableFormatError as err:
            with pytest.raises(TableFormatError) as got:
                load_table(path)
            assert str(got.value) == str(err), name
            continue
        table = load_table(path)
        assert (table.countries, table.sectors) == (ref.countries, ref.sectors), name
        for attr in ("Z", "F", "v", "x"):
            assert getattr(table, attr).tobytes() == getattr(ref, attr).tobytes(), (name, attr)
    assert min(cpus - 1, 6) <= max(started) <= cpus - 1
    assert_no_child()


def test_parallel_loader_at_the_default_slice_size(tmp_path, monkeypatch):
    rng = np.random.default_rng(5)
    path = tmp_path / "wide.csv"
    write_table(random_balanced_table(rng, [f"C{i}" for i in range(15)],
                                      [f"S{k}" for k in range(30)]), path)
    started = count_workers(monkeypatch, 1, iotables.MIN_SLICE_ROWS)
    serial = load_table(path)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
    table = load_table(path)
    # 449 rows after the first three make two slices of at least 200.
    assert started == [0, 1]
    for attr in ("Z", "F", "v", "x"):
        assert getattr(table, attr).tobytes() == getattr(serial, attr).tobytes(), attr


def _exit_at_once(path, start, stop, rows):
    os._exit(1)


def _fill_first_row(path, start, stop, rows, parse_slice=iotables._parse_slice):
    parse_slice(path, start, start + 1, rows)


@pytest.mark.parametrize("worker", (_exit_at_once, _fill_first_row))
def test_parallel_loader_parses_rows_a_worker_never_wrote(tmp_path, monkeypatch, worker):
    path = tmp_path / "table.csv"
    write_table(random_balanced_table(np.random.default_rng(8), ["AAA", "BBB", "CCC"],
                                      ["MFG", "SRV", "AGR"]), path)
    serial = load_table(path)
    started = count_workers(monkeypatch, 4)
    monkeypatch.setattr(iotables, "_parse_slice", worker)
    table = load_table(path)
    assert started == [3]
    for attr in ("Z", "F", "v", "x"):
        assert getattr(table, attr).tobytes() == getattr(serial, attr).tobytes(), attr
    assert_no_child()


LATE_SCALE = 1.0 + 1e-9     # well inside the balance tolerance


def _scale_late(path, start, stop, rows, parse_slice=iotables._parse_slice):
    time.sleep(0.5)
    parse_slice(path, start, stop, rows)
    rows[:, :-1] *= LATE_SCALE


def test_parallel_loader_waits_for_a_slice_before_reading_it(tmp_path, monkeypatch):
    # Workers that write their rows, scaled, long after the parent's slice
    # is read: the parent still takes every one of them.
    path = tmp_path / "table.csv"
    write_table(random_balanced_table(np.random.default_rng(8), ["AAA", "BBB", "CCC"],
                                      ["MFG", "SRV", "AGR"]), path)
    serial = load_table(path)
    started = count_workers(monkeypatch, 4)
    monkeypatch.setattr(iotables, "_parse_slice", _scale_late)
    table = load_table(path)
    assert started == [3]
    # 8 lines after the header and the first three rows: the workers' slices
    # are lines 6-7, 8-9 and 10-11, so the last four flow rows, VA and OUT.
    late = [k for k in range(9) if table.Z[k].tobytes() != serial.Z[k].tobytes()]
    assert late == [5, 6, 7, 8]
    for attr in ("Z", "F"):
        expect = np.concatenate([getattr(serial, attr)[:5], getattr(serial, attr)[5:] * LATE_SCALE])
        assert getattr(table, attr).tobytes() == expect.tobytes(), attr
    assert_no_child()


def _stall(path, start, stop, rows):
    time.sleep(60)


@pytest.mark.parametrize("worker", (iotables._parse_slice, _stall))
def test_parallel_loader_leaves_no_worker_after_an_error(tmp_path, monkeypatch, worker):
    path = tmp_path / "table.csv"
    write_table(random_balanced_table(np.random.default_rng(9), ["AAA", "BBB", "CCC"],
                                      ["MFG", "SRV", "AGR"]), path)
    lines = path.read_text().splitlines(keepends=True)
    started = count_workers(monkeypatch, 4)
    monkeypatch.setattr(iotables, "_parse_slice", worker)
    # A short row in the parent's slice, while the workers still run; and
    # with working workers, one in the last slice.
    for k in (4,) if worker is _stall else (4, len(lines) - 3):
        bad = tmp_path / f"short_{k}.csv"
        bad.write_text("".join(lines[:k]) + lines[k].rsplit(",", 1)[0] + "\n"
                       + "".join(lines[k + 1:]))
        begun = time.monotonic()
        with pytest.raises(TableFormatError, match="has 11 cells, expected 12"):
            load_table(bad)
        assert time.monotonic() - begun < 30
        assert started[-1] == 3
        assert_no_child()


def test_forked_load_loads_no_process_or_network_module(tmp_path):
    # In a fresh interpreter with 4 usable CPUs, a 450-row table takes one
    # worker; the load leaves no child and needs neither multiprocessing
    # nor the modules it brings.
    path = tmp_path / "wide.csv"
    write_table(random_balanced_table(np.random.default_rng(5), [f"C{i}" for i in range(15)],
                                      [f"S{k}" for k in range(30)]), path)
    code = ("import os, sys\n"
            "os.sched_getaffinity = lambda pid: set(range(4))\n"
            "from gscsim import load_table\n"
            "assert load_table(sys.argv[1]).Z.shape == (450, 450)\n"
            "try:\n"
            "    print('child left', os.waitpid(-1, os.WNOHANG))\n"
            "except ChildProcessError:\n"
            "    pass\n"
            "print(*sorted(m for m in ('mmap', 'multiprocessing', 'socket', 'selectors',\n"
            "                          'subprocess') if m in sys.modules))\n")
    src = os.path.dirname(os.path.dirname(iotables.__file__))
    run = subprocess.run([sys.executable, "-c", code, str(path)], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert run.stdout == "mmap\n"      # mmap: the load forked


def test_parallel_loader_reads_a_descriptor_or_a_pipe_alone(tmp_path, monkeypatch):
    # A worker reopening either would take lines from the parent's stream.
    path = tmp_path / "table.csv"
    write_table(random_balanced_table(np.random.default_rng(8), ["AAA", "BBB", "CCC"],
                                      ["MFG", "SRV", "AGR"]), path)
    serial = load_table(path)
    started = count_workers(monkeypatch, 4)
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=lambda: fifo.write_text(path.read_text()), daemon=True)
    writer.start()
    tables = [load_table(os.open(path, os.O_RDONLY)), load_table(fifo)]
    writer.join(timeout=10)
    assert started == [0, 0] and not writer.is_alive()
    for table in tables:
        for attr in ("Z", "F", "v", "x"):
            assert getattr(table, attr).tobytes() == getattr(serial, attr).tobytes(), attr


@pytest.fixture(scope="module")
def imported_modules():
    """The names in ``sys.modules`` of a fresh interpreter that has imported
    ``gscsim`` and ``gscsim.cli``."""
    src = os.path.dirname(os.path.dirname(iotables.__file__))
    code = "import sys, gscsim, gscsim.cli; print(*sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    return set(run.stdout.split())


# mmap and signal load only when load_table forks; multiprocessing not at all;
# the others are the network stack, which xml.sax.saxutils would pull in.
@pytest.mark.parametrize("module", ["mmap", "signal", "multiprocessing", "ssl", "socket",
                                    "http.client", "email", "urllib.request", "xml.sax"])
def test_import_leaves_module_unloaded(imported_modules, module):
    assert "gscsim.cli" in imported_modules
    assert module not in imported_modules


def test_reliance_to_csv(tmp_path):
    fir = compute_fir(two_country_table(), "MFG")
    path = tmp_path / "fir.csv"
    fir.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "fir,ALP,BET"
    assert lines[1] == "ALP,,40.0"       # blank diagonal, one decimal
    assert lines[2] == "BET,0.0,"
    # to_csv and the CLI share one row rule, so gscsim fir publishes these bytes
    table_path = tmp_path / "world.csv"
    write_table(two_country_table(), table_path)
    assert main(["fir", "--table", str(table_path), "--sector", "MFG",
                 "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "fir.csv").read_bytes() == path.read_bytes()


def test_index_and_labels():
    table = two_country_table()
    assert table.labels() == ["ALP:MFG", "BET:MFG"]
    assert table.index("BET", "MFG") == 1
    with pytest.raises(ValueError):
        table.index("CCC", "MFG")
