"""The README config's reports and the corpus values match the files in
``tests/golden/``: bit for bit where the file's record matches this process,
within ``contract.BOUND`` elsewhere (see ``contract``)."""

import math

import pytest

import contract


@pytest.mark.parametrize("name", list(contract.FILES),
                         ids=[name.removesuffix(".json") for name in contract.FILES])
def test_outputs_match_the_golden_file(name):
    golden = contract.load(name)
    bitwise = contract.bitwise(golden["record"])
    moved = contract.COMPARE[name](golden["values"], contract.FILES[name](), bitwise)
    assert not moved, (f"{len(moved)} values moved ({'bit for bit' if bitwise else 'bounded'}):\n"
                       + "\n".join(moved[:20]))


def _bumped(text: str, ulps: float) -> str:
    value = float(text)
    return format(value + ulps * math.ulp(value), ".17g")


def test_one_ulp_fails_bit_for_bit_and_a_bound_move_fails_both():
    golden = contract.load("sandwich.json")["values"]
    key = "mixed_rational cutoff=1 rho=0.5 n=1"
    for ulps, bitwise_fails, bounded_fails in ((1, True, False), (2 ** 40, True, True)):
        moved = {case: dict(fields) for case, fields in golden.items()}
        moved[key]["k_alpha"] = _bumped(golden[key]["k_alpha"], ulps)
        assert moved != golden
        for bound, fails in ((None, bitwise_fails), (contract.BOUND, bounded_fails)):
            assert contract.differences(golden, moved, bound) == \
                ([f"/{key}/k_alpha: {golden[key]['k_alpha']!r} != "
                  f"{moved[key]['k_alpha']!r}"] if fails else []), (ulps, bound)


def test_bounded_readme_comparison_reads_contents_not_versions():
    # another numpy: other hashes and another versions block, same contents
    values = contract.load("readme_config.json")["values"]
    other = {name: dict(entry, sha256="0" * 64) for name, entry in values.items()}
    summary = other["summary.json"]["content"] = dict(values["summary.json"]["content"])
    summary["versions"] = dict(summary["versions"], numpy="0")
    assert contract.readme_differences(values, other, bitwise=False) == []
    moved = contract.readme_differences(values, other, bitwise=True)
    assert sorted(line.split(":")[0] for line in moved) == \
        sorted([f"/{name}/sha256" for name in values] + ["/summary.json/content/versions/numpy"])
    summary["all_passed"] = not summary["all_passed"]
    assert contract.readme_differences(values, other, bitwise=False) == \
        [f"/summary.json/all_passed: {not summary['all_passed']!r} != "
         f"{summary['all_passed']!r}"]


def test_a_dropped_csv_column_is_named_once_per_row():
    # rows keyed by the header: the column is named in each row, the header
    # shrinks, and no other cell is reported as moved, bit for bit or bounded
    values = contract.load("readme_config.json")["values"]
    rows = values["sandwich.csv"]["content"]
    drop = rows[0].index("chain_upper_slack")
    other = dict(values)
    other["sandwich.csv"] = dict(values["sandwich.csv"],
                                 content=[row[:drop] + row[drop + 1:] for row in rows])
    for bitwise, where in ((True, "/sandwich.csv/content"), (False, "/sandwich.csv")):
        assert contract.readme_differences(values, other, bitwise) == \
            [f"{where}/header: {len(rows[0])} entries != {len(rows[0]) - 1}"] + \
            [f"{where}/rows[{i}]/chain_upper_slack: removed" for i in range(len(rows) - 1)]


def test_an_unread_blas_config_never_compares_bit_for_bit(monkeypatch):
    # a numpy without a bundled OpenBLAS records None on every machine, and
    # two such machines may still pick different BLAS cores
    monkeypatch.setattr(contract, "_openblas_config", lambda: None)
    here = contract.record()
    assert here["blas"]["config"] is None
    assert not contract.bitwise(here)
    monkeypatch.undo()
    assert contract.bitwise(contract.record()) == (contract.record()["blas"]["config"] is not None)


def test_regeneration_returns_the_paths_that_moved(tmp_path, monkeypatch):
    monkeypatch.setattr(contract, "GOLDEN", tmp_path)
    monkeypatch.setattr(contract, "FILES", {"x.json": lambda: {"a": "1", "b": {"c": "2"}}})
    monkeypatch.setattr(contract, "COMPARE", {"x.json": contract.value_differences})
    assert contract.regenerate("x.json") == []  # a new file moves nothing
    assert contract.regenerate("x.json") == []
    contract.FILES["x.json"] = lambda: {"a": "1.5", "b": {"d": "2"}}
    assert contract.regenerate("x.json") == ["/a: '1' != '1.5'", "/b/c: removed", "/b/d: added"]
    assert contract.load("x.json")["values"] == {"a": "1.5", "b": {"d": "2"}}


def test_another_thread_count_never_compares_bit_for_bit():
    here = contract.record(threads=True)
    assert contract.bitwise(here) == (here["blas"]["config"] is not None)
    other = dict(here, blas=dict(here["blas"], threads=(here["blas"]["threads"] or 0) + 1))
    assert not contract.bitwise(other)
