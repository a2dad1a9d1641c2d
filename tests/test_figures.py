"""The experiment drivers (figures package): shapes, then exact goldens.

The paper's exhibits are deterministic modelled numbers, so beyond the
shape and ordering checks below every public ``*rows()`` / ``*ratios()``
result is pinned *exactly* against ``tests/golden/figures/<exhibit>.json``
(rows carry their own rounding).  Where the paper publishes the value,
the golden records it beside ours with the ratio, so drift toward or
away from the paper is a visible diff.  A legitimate model change
refreshes the goldens with::

    pytest tests/test_figures.py --update-golden

and the resulting diff is reviewed like any other code change.
"""

import copy
import json
from pathlib import Path

import pytest

from repro.baselines.digital_mvmu import digital_mvmu_comparison
from repro.figures import (
    fig4,
    fig9,
    fig11,
    fig12,
    fig13,
    table1,
    table3,
    table5,
    table6,
    table7,
    table8,
)


class TestFig4:
    def test_every_workload_present(self):
        rows = {r["Workload"] for r in fig4.rows()}
        assert len(rows) == 6
        assert any("CNN" in w for w in rows)

    def test_percentages_sum_to_100(self):
        for row in fig4.rows():
            total = sum(v for k, v in row.items()
                        if k not in ("Workload", "Total"))
            assert total == pytest.approx(100.0, abs=1.0)

    def test_cnn_uses_control_flow(self):
        cnn = next(r for r in fig4.rows() if "CNN" in r["Workload"])
        assert cnn["Control Flow"] > 0
        assert cnn["Scalar Functional Unit"] > 0

    def test_straightline_nets_have_no_control_flow(self):
        mlp = next(r for r in fig4.rows() if "MLP" in r["Workload"])
        assert mlp["Control Flow"] == 0

    def test_mvm_alone_is_insufficient(self):
        """Section 3.6's point: every workload needs non-MVM units."""
        for row in fig4.rows():
            assert row["MVM Unit (crossbar)"] < 50

    def test_bm_rbm_use_network(self):
        for name in ("BM", "RBM"):
            row = next(r for r in fig4.rows() if name in r["Workload"])
            assert row["Inter-Tile Data Transfer"] > 0


class TestFig11:
    def test_energy_rows_cover_all_platforms(self):
        rows = fig11.energy_rows()
        assert len(rows) == 8
        for row in rows:
            for platform in ("Haswell", "Skylake", "Kepler", "Maxwell",
                             "Pascal"):
                assert row[platform] > 0

    def test_energy_savings_everywhere(self):
        for row in fig11.energy_rows():
            assert min(v for k, v in row.items() if k != "Benchmark") > 1

    def test_batch_rows(self):
        rows = fig11.batch_throughput_rows()
        for row in rows:
            assert row["B16"] > 0

    def test_batch_benefit_shrinks_with_batch(self):
        """Section 7.3: benefits decrease slightly with larger batches."""
        for row in fig11.batch_energy_rows():
            assert row["B128"] <= row["B16"]


class TestTables:
    def test_table1_renders(self):
        assert "MLP" in table1.render()

    def test_table3_renders(self):
        text = table3.render()
        assert "MVMU" in text
        assert "19.09" in text

    def test_table5_parameter_column(self):
        rows = {r["DNN Name"]: r for r in table5.rows()}
        assert rows["BigLSTM"]["# Parameters (M)"] == pytest.approx(856, rel=0.01)

    def test_table6_factors(self):
        factors = table6.comparison_factors()
        assert factors["puma_vs_tpu_peak_ae"] == pytest.approx(8.3, rel=0.05)
        assert factors["puma_vs_isaac_ae"] < 1  # programmability overhead

    def test_table6_tpu_per_workload_ordering(self):
        rows = {r["Workload"]: r for r in table6.per_workload_rows()}
        # Paper: TPU AE is MLP 0.009, LSTM 0.003, CNN 0.06.
        assert rows["LSTM"]["TPU AE"] < rows["MLP"]["TPU AE"] \
            < rows["CNN"]["TPU AE"]
        assert rows["MLP"]["TPU AE"] == pytest.approx(0.009, rel=0.1)

    def test_table7_renders(self):
        text = table7.render()
        assert "state machine" in text

    def test_table8_sizing_rows(self):
        rows = {r["Workload"]: r for r in table8.shared_memory_sizing_rows()}
        assert rows["MLPL4"]["Energy ratio"] == 1  # no pipelining benefit
        assert rows["NMTL3"]["Energy ratio"] < 1


class TestFig12:
    def test_sweep_rows(self):
        rows = fig12.sweep_rows("vfu_width")
        assert [r["vfu_width"] for r in rows] == [1, 4, 16, 64]

    def test_unknown_parameter(self):
        with pytest.raises(KeyError):
            fig12.sweep_rows("bogus")

    def test_spill_rows_shape(self):
        rows = fig12.spill_rows()
        small = next(r for r in rows if r["RF scale"] == 0.25)
        large = next(r for r in rows if r["RF scale"] == 16.0)
        assert small["% accesses from spills"] > 0
        assert large["% accesses from spills"] == 0


class TestFig13:
    def test_rows_structure(self):
        rows = fig13.rows(trials=2)
        assert len(rows) == 4  # four noise levels
        assert "2-bit" in rows[0]


# -- exact goldens -----------------------------------------------------------

GOLDEN_DIR = Path(__file__).parent / "golden" / "figures"
EXHIBIT_MODULES = {
    module.__name__.rpartition(".")[2]: module
    for module in (fig4, fig9, fig11, fig12, fig13, table1, table3, table5,
                   table6, table7, table8)}
# The one rows function that takes an argument, and every value it takes.
SWEPT = {fig12.sweep_rows: fig12.SWEEP_PARAMETERS}


def _vs_paper(quantity, source, paper, ours):
    return {"quantity": quantity, "source": source, "paper": paper,
            "ours": round(ours, 4), "ours/paper": round(ours / paper, 3)}


def _published_table3():
    node = next(r for r in table3.rows() if r["component"] == "Node")
    return [
        _vs_paper("Node power (mW)", "Table 3", node["power_mw"],
                  node["model_power_mw"]),
        _vs_paper("Node area (mm2)", "Table 3", node["area_mm2"],
                  node["model_area_mm2"]),
    ]


def _published_table5():
    ours = {r["DNN Name"]: r["# Parameters (M)"] for r in table5.rows()}
    return [_vs_paper(f"{name} parameters (M)", "Table 5", paper, ours[name])
            for name, paper in (("MLPL4", 5), ("NMTL3", 91),
                                ("BigLSTM", 856), ("Vgg16", 136))]


def _published_table6():
    puma = table6.rows()[0]
    factors = table6.comparison_factors()
    return [
        _vs_paper("Peak AE (GOPS/s/mm2)", "abstract", 577,
                  puma["Peak AE (TOPS/s/mm2)"] * 1e3),
        _vs_paper("Peak PE (GOPS/s/W)", "abstract", 837,
                  puma["Peak PE (TOPS/s/W)"] * 1e3),
        _vs_paper("PUMA / TPU peak AE", "Table 6", 8.3,
                  factors["puma_vs_tpu_peak_ae"]),
        _vs_paper("PUMA / TPU peak PE", "Table 6", 1.65,
                  factors["puma_vs_tpu_peak_pe"]),
        _vs_paper("PUMA / ISAAC AE", "Table 6", 0.708,
                  factors["puma_vs_isaac_ae"]),
        _vs_paper("PUMA / ISAAC PE", "Table 6", 0.793,
                  factors["puma_vs_isaac_pe"]),
    ]


def _published_digital_mvmu():
    cmp = digital_mvmu_comparison()
    return [
        _vs_paper("digital / memristive MVMU energy", "Section 7.4.3",
                  4.17, cmp.energy_factor),
        _vs_paper("digital / memristive MVMU area", "Section 7.4.3",
                  8.97, cmp.area_factor),
        _vs_paper("digital / memristive chip energy", "Section 7.4.3",
                  6.76, cmp.chip_energy_factor),
        _vs_paper("digital / memristive chip area", "Section 7.4.3",
                  4.93, cmp.chip_area_factor),
    ]


PUBLISHED = {"table3": _published_table3, "table5": _published_table5,
             "table6": _published_table6,
             "digital_mvmu": _published_digital_mvmu}
EXHIBITS = sorted(EXHIBIT_MODULES.keys() | PUBLISHED.keys())


def regenerate(exhibit):
    """Everything one exhibit's golden pins, as JSON values: each public
    ``*rows`` / ``*ratios`` function of its module by name, then the
    published values beside ours."""
    pinned = {}
    module = EXHIBIT_MODULES.get(exhibit)
    for name, fn in sorted(vars(module).items()) if module else ():
        if name.startswith("_") or not name.endswith(("rows", "ratios")) \
                or getattr(fn, "__module__", None) != module.__name__:
            continue
        pinned[name] = ({arg: fn(arg) for arg in SWEPT[fn]}
                        if fn in SWEPT else fn())
    if exhibit in PUBLISHED:
        pinned["published"] = PUBLISHED[exhibit]()
    return json.loads(json.dumps(pinned))


def golden_drift(where, golden, current):
    """Every place ``current`` departs from ``golden``, each named by its
    path: ``exhibit['function'][row]['column']``."""
    if isinstance(golden, dict) and isinstance(current, dict):
        drift = []
        for key in [*golden, *(k for k in current if k not in golden)]:
            if key in golden and key in current:
                drift += golden_drift(f"{where}[{key!r}]", golden[key],
                                      current[key])
            else:
                drift.append(f"{where}[{key!r}]: only in "
                             f"{'golden' if key in golden else 'current'}")
        return drift
    if isinstance(golden, list) and isinstance(current, list) \
            and len(golden) == len(current):
        return [line for index, pair in enumerate(zip(golden, current))
                for line in golden_drift(f"{where}[{index}]", *pair)]
    if golden != current or type(golden) is not type(current):
        return [f"{where}: golden {golden!r}, current {current!r}"]
    return []


@pytest.mark.parametrize("exhibit", EXHIBITS)
def test_exhibit_matches_golden(exhibit, request):
    """Every modelled number of the exhibit equals the reviewed golden."""
    current = regenerate(exhibit)
    golden_path = GOLDEN_DIR / f"{exhibit}.json"
    if request.config.getoption("--update-golden"):
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        golden_path.write_text(json.dumps(current, indent=1) + "\n")
        pytest.skip(f"regenerated {golden_path}")
    drift = golden_drift(exhibit, json.loads(golden_path.read_text()),
                         current)
    assert not drift, (
        f"{exhibit} drifted from tests/golden/figures/{exhibit}.json:\n  "
        + "\n  ".join(drift[:20])
        + "\nIf the change is intentional, refresh with --update-golden "
          "and review the diff.")


def test_golden_comparison_catches_a_one_unit_change():
    """Guard the guard: one perturbed value is reported by exhibit, row
    and column — and nothing else is."""
    golden = json.loads((GOLDEN_DIR / "table3.json").read_text())
    perturbed = copy.deepcopy(golden)
    row = next(i for i, r in enumerate(golden["rows"])
               if r["component"] == "Node")
    perturbed["rows"][row]["model_power_mw"] += 1
    assert golden_drift("table3", golden, golden) == []
    (report,) = golden_drift("table3", perturbed, golden)
    assert report.startswith(f"table3['rows'][{row}]['model_power_mw']: ")
