"""The resource guard: every size limit and its refusal rule live in ``errors``."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

import icelab as il
from icelab import errors, spectral
from icelab.errors import MAX_SYMBOLS, ResourceRefusal, refuse_above

SRC = Path(il.__file__).parent


def test_refuse_above_admits_the_limit_and_refuses_one_more():
    refuse_above("size", 10, 10)
    refuse_above("size", 10, 10, force=False)
    with pytest.raises(ResourceRefusal, match="pass --force"):
        refuse_above("size", 11, 10, force=False)
    refuse_above("size", 11, 10, force=True)
    # A hard cap (no force flag) does not offer --force.
    with pytest.raises(ResourceRefusal) as exc:
        refuse_above("size", 11, 10)
    assert "--force" not in str(exc.value)


def test_readme_limits_table_lists_every_limit_with_its_value():
    # Rows read "| `MAX_NAME` = 10,000,000 | ..." or "= 2^22"; a row naming a
    # limit that errors no longer defines is as stale as a missing one.
    readme = (SRC.parents[1] / "README.md").read_text(encoding="utf-8")
    rows = {}
    for name, value in re.findall(r"^\| `(MAX_\w+)` = ([\d,^]+) \|", readme, re.M):
        base, _, power = value.replace(",", "").partition("^")
        rows[name] = int(base) ** int(power or 1)
    limits = {name: getattr(errors, name) for name in dir(errors) if name.startswith("MAX_")}
    assert rows == limits


def _tower(last_spacer: int) -> il.Schedule:
    """h_6 = 10**7 + last_spacer: six stages of ten copies over a ten-symbol seed."""
    alphabet = il.Alphabet(("0", "1"), "1")
    stages = [il.Stage(10, (0,) * 10)] * 5
    stages.append(il.Stage(10, (0,) * 10, (last_spacer,) + (0,) * 9))
    return il.Schedule(alphabet, il.word_from_text(alphabet, "0" * 10), tuple(stages))


def test_library_guards_admit_exactly_max_symbols():
    assert il.ProjectionChain.build(_tower(0)).heights[-1] == MAX_SYMBOLS
    over = _tower(1)
    with pytest.raises(ResourceRefusal):
        il.ProjectionChain.build(over)
    with pytest.raises(ResourceRefusal):
        il.build_word(over)


def _module_calls(predicate) -> list[tuple[str, str]]:
    """``(module, enclosing function)`` of every call in ``icelab`` matching ``predicate``."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Call) and predicate(node):
                    found.append((path.stem, func.name))
    return found


def test_resource_refusals_are_raised_only_by_the_shared_guard():
    def constructs_refusal(call: ast.Call) -> bool:
        return isinstance(call.func, ast.Name) and call.func.id == "ResourceRefusal"

    assert _module_calls(constructs_refusal) == [("errors", "refuse_above")]


def test_no_library_call_forces_a_build():
    # Only a caller passes force=True, as the CLI's --force does; no library
    # function forces a build of its own.
    def forces(call: ast.Call) -> bool:
        return any(kw.arg == "force" and isinstance(kw.value, ast.Constant)
                   and kw.value.value is True for kw in call.keywords)

    assert _module_calls(forces) == []


def test_correlation_transforms_run_in_one_kernel():
    # Autocorrelation, cross-correlation, decay and the merit factor share
    # correlation._correlate_owned; the only other transform in the package is
    # the circle-grid evaluation of a folded polynomial, which correlates nothing.
    def fft_call(call: ast.Call) -> bool:
        f = call.func
        return (isinstance(f, ast.Attribute) and isinstance(f.value, ast.Attribute)
                and f.value.attr == "fft" and isinstance(f.value.value, ast.Name)
                and f.value.value.id == "np")

    assert set(_module_calls(fft_call)) == {("correlation", "_correlate_owned"),
                                            ("spectral", "_eval_integer_circle")}


def test_no_row_wise_unique():
    # The jump matrix counts its pairs of ranks on folded 1-d keys
    # (iceberg.jump_matrix); np.unique(..., axis=0) sorts whole rows and was
    # its bottleneck.
    def row_wise_unique(call: ast.Call) -> bool:
        return (isinstance(call.func, ast.Attribute) and call.func.attr == "unique"
                and any(kw.arg == "axis" for kw in call.keywords))

    assert _module_calls(row_wise_unique) == []


def test_dense_evaluation_admits_the_limit_and_refuses_one_more(monkeypatch):
    # A small limit stands in for MAX_DENSE_TERMS: 6 frequencies at 10 points
    # is 60 terms.  The spy records the terms of every dense evaluation run.
    calls = []
    eval_line = spectral._eval_line

    def spy(freqs, coeffs, points):
        calls.append(freqs.size * points.size)
        return eval_line(freqs, coeffs, points)

    monkeypatch.setattr(spectral, "_eval_line", spy)
    monkeypatch.setattr(spectral, "MAX_DENSE_TERMS", 60)
    fs = il.exp_frequency_set(6, 0.1)
    il.eval_polynomial(fs, il.LineGrid(1.0, 2.0, 10), "M_R")
    with pytest.raises(ResourceRefusal, match="pass --force"):
        il.eval_polynomial(fs, il.LineGrid(1.0, 2.0, 11), "M_R")
    assert calls == [60]
    il.eval_polynomial(fs, il.LineGrid(1.0, 2.0, 11), "M_R", force=True)
    assert calls == [60, 66]


def test_force_reaches_every_dense_evaluation(monkeypatch):
    # With a limit of one term every line-grid evaluation is refused unless
    # forced; circle grids are folded, not evaluated densely, and pass.
    monkeypatch.setattr(spectral, "MAX_DENSE_TERMS", 1)
    alphabet = il.Alphabet(("0", "1"), "1")
    sch = il.rank_one_schedule("staircase", [3, 3], seed_word=il.word_from_text(alphabet, "0"))
    labels = {"0": 1.0}
    line = il.LineGrid(0.5, 3.0, 9)
    for run in (lambda force: il.direct_word_spectrum(sch, labels, 2, line, force=force),
                lambda force: il.riesz_partial_product(sch, labels, 0, 1, line, force=force),
                lambda force: il.eval_polynomial([1, -1, 1], line, "L", force=force)):
        with pytest.raises(ResourceRefusal):
            run(False)
        run(True)
    circle = il.CircleGrid(16)
    assert il.riesz_partial_product(sch, labels, 0, 1, circle).values.size == 16
