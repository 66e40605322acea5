"""tools/exact_counts.py, the CI check of a traced benchmark run's exact
counts against tests/data/exact_counts.json."""
import importlib.util
import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "exact_counts", os.path.join(ROOT, "tools", "exact_counts.py"))
exact_counts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(exact_counts)


def metrics(**values) -> dict:
    return {"metrics": {name.replace("__", "."): {"value": v, "unit": "count"}
                        for name, v in values.items()}}


def test_only_the_exact_counts_are_kept():
    run = {"unitary": metrics(compiler__unitary_gates=7, compiler__to_unitary__s=0.3,
                              compiler__to_unitary__calls=5, gardenhose__run_protocol1__failed=0,
                              gardenhose__ledger_pairs=2, trace__batch_s=0.6,
                              frames__key_terms_total=9)}
    assert exact_counts.exact_counts(run) == {"unitary": {
        "compiler.unitary_gates": 7, "frames.key_terms_total": 9, "gardenhose.ledger_pairs": 2}}


def test_every_difference_is_printed_old_to_new():
    old = {"unitary": {"compiler.unitary_gates": 233210, "compiler.unitary_t_count": 5},
           "verify": {"compiler.branches": 1}}
    new = {"unitary": {"compiler.unitary_gates": 148416, "compiler.unitary_t_count": 5,
                       "compiler.epr_pairs": 3}}
    assert exact_counts.differences(old, new) == [
        "unitary compiler.epr_pairs: missing -> 3",
        "unitary compiler.unitary_gates: 233210 -> 148416",
        "verify compiler.branches: 1 -> missing",
    ]
    assert exact_counts.differences(new, new) == []


def test_the_ledger_holds_every_workload():
    with open(exact_counts.LEDGER, encoding="utf-8") as fh:
        ledger = json.load(fh)
    assert sorted(ledger) == ["compile", "protocol", "unitary", "verify"]
    for counts in ledger.values():
        assert all(name.startswith(exact_counts.COUNTS) for name in counts)
        assert all(isinstance(v, int) for v in counts.values())
