"""The generator gives the same inputs for the same seed, and other inputs
for another seed."""

import inputs


def files(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_same_seed_same_inputs(tmp_path):
    inputs.generate("featurize_short", 3, tmp_path / "a")
    inputs.generate("featurize_short", 3, tmp_path / "b")
    inputs.generate("featurize_short", 4, tmp_path / "c")
    a, b, c = (files(tmp_path / k) for k in "abc")
    assert a == b
    assert a.keys() == c.keys() and a != c
    reference = [k for k in a if k.name.startswith("ref")]
    assert reference and all(a[k] == c[k] for k in reference)


def test_ragged_work_does_not_depend_on_seed(tmp_path):
    one = inputs.generate("train_objective", 1, tmp_path / "a")
    two = inputs.generate("train_objective", 2, tmp_path / "b")
    assert one["lengths"] != two["lengths"]
    assert sorted(one["lengths"]) == sorted(two["lengths"])
