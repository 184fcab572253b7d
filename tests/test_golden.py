"""Golden outputs: every CLI run of :data:`RUNS` against the tree ``tests/golden``.

    PYTHONPATH=src python tests/test_golden.py    # re-pin: rewrites tests/golden

Each run goes through ``cli.main`` in this process and writes into its own
directory ``<run>/``.  ``<run>.log`` beside it holds the exit code, standard
output and standard error, with that directory written as ``<out>``.

Two trees agree when they hold the same files, each with the same lines, and
every token of a line (split at commas and whitespace) is the same, except
float literals, which may differ by ``RTOL * max(1, |golden|)``.  The writers
print floats with full ``repr``, so a change that reorders float operations,
or another BLAS build, moves last bits; the tolerance absorbs that, and no
change of a label, count, word or exit code.  A change that moves a golden
value beyond it re-pins the tree in the same commit and lists the files it
changed in ``CHANGES.md``.
"""

from __future__ import annotations

import io
import re
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from qspectral import cli

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
CONFIGS = HERE.parent / "configs"
RTOL = 1e-12
FLOAT = re.compile(r"[-+]?(?:[0-9]+\.[0-9]*(?:[eE][-+]?[0-9]+)?|[0-9]+[eE][-+]?[0-9]+|inf|nan)")
SEPARATORS = re.compile(r"([,\s]+)")

# configs the runs write for themselves, beside the bundled ones; name: text
WRITTEN_CONFIGS = {
    # the figure preset under the verbatim iterate
    "verbatim": "pea: {standard_grover: false}\n",
    # the normalized Laplacian variant on a laplacian target: both verbs pick k on it
    "normalized": "seed: 2\ndataset: {kind: moons, n: 16, noise: 0.2}\n"
                  "target: laplacian\nvariant: normalized\n",
    # N=128 points, at the size gate: the operator's spectrum comes from the factor route
    "blobs128": "dataset: {kind: blobs, sizes: [64, 64], centers: [[1, 0], [0, 1]], noise: 0.08}\n"
                "target: gram\n",
}
# three_blobs has N = 12 points, so its system register has rows past the operator's
BUNDLED = ("two_blobs", "figure_preset", "three_blobs")
VERBS = ("graph", "cluster-classical", "amplify-trace", "cluster-quantum")
RUNS = {  # name: (verb, config name or None, further arguments)
    **{f"{verb}_{config}": (verb, config, ())
       for config in BUNDLED for verb in VERBS},
    "amplify-trace_verbatim": ("amplify-trace", "verbatim", ()),
    "amplify-trace_figure_preset_verbose": ("amplify-trace", "figure_preset", ("--verbose",)),
    "graph_normalized": ("graph", "normalized", ()),
    "cluster-classical_normalized": ("cluster-classical", "normalized", ()),
    "cluster-quantum_blobs128": ("cluster-quantum", "blobs128", ()),
    # seed 10 first draws the true partition as its scrambled set
    "cluster-quantum_two_blobs_seed10": ("cluster-quantum", "two_blobs", ("--seed", "10")),
    "selftest": ("selftest", None, ()),
}


def run_all(dest: Path) -> None:
    """Every run of :data:`RUNS`, written under the directory ``dest``."""
    dest.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: CONFIGS / f"{name}.yaml" for name in BUNDLED}
        for name, text in WRITTEN_CONFIGS.items():
            paths[name] = Path(tmp) / f"{name}.yaml"
            paths[name].write_text(text)
        for name, (verb, config, extra) in RUNS.items():
            out = dest / name
            args = [verb, *(() if config is None else ("--config", str(paths[config]))), *extra]
            stdout, stderr = io.StringIO(), io.StringIO()
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = cli.main([*args, "--out", str(out)])
            log = f"exit {code}\n--- stdout\n{stdout.getvalue()}--- stderr\n{stderr.getvalue()}"
            (dest / f"{name}.log").write_text(log.replace(str(out), "<out>"))


def _same_token(golden: str, actual: str) -> bool:
    if golden == actual:
        return True
    if not (FLOAT.fullmatch(golden) and FLOAT.fullmatch(actual)):
        return False
    return abs(float(actual) - float(golden)) <= RTOL * max(1.0, abs(float(golden)))


def _same_line(golden: str, actual: str) -> bool:
    want, got = SEPARATORS.split(golden), SEPARATORS.split(actual)
    return len(want) == len(got) and all(map(_same_token, want, got))


def differences(golden: Path, actual: Path) -> list[str]:
    """Each way the tree ``actual`` departs from ``golden``: a file that only
    one side holds, a file with another line count, or the first line of a
    file that differs."""
    files = {root: {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}
             for root in (golden, actual)}
    found = [f"{name}: only in {'golden' if name in files[golden] else 'actual'}"
             for name in sorted(files[golden] ^ files[actual])]
    for name in sorted(files[golden] & files[actual]):
        want, got = ((root / name).read_bytes().decode().split("\n") for root in (golden, actual))
        if len(want) != len(got):
            found.append(f"{name}: {len(got)} lines, golden {len(want)}")
            continue
        bad = next((i for i, (w, g) in enumerate(zip(want, got)) if not _same_line(w, g)), None)
        if bad is not None:
            found.append(f"{name} line {bad + 1}: {got[bad]!r}, golden {want[bad]!r}")
    return found


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("outputs")
    run_all(root)
    return root


def test_outputs_match_golden(outputs):
    assert differences(GOLDEN, outputs) == []


# ---------------------------------------------------------------------------
# the comparison is not vacuous: each edit of a copy of the golden tree fails it


def _replace(path: Path, old: str, new: str) -> None:
    text = path.read_text()
    assert old in text, (path, old)
    path.write_text(text.replace(old, new, 1))


def _move_float(path: Path, row: int, column: int, delta: float) -> None:
    """Add ``delta`` to one float cell of a CSV file."""
    lines = path.read_text().split("\n")
    cells = lines[row].split(",")
    moved = repr(float(cells[column]) + delta)
    assert moved != cells[column]
    cells[column] = moved
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines))


def _flip_label(root: Path) -> None:
    path = root / "cluster-quantum_two_blobs" / "labels_quantum.csv"
    lines = path.read_text().split("\n")
    index, label = lines[1].split(",")
    lines[1] = f"{index},{1 - int(label)}"
    path.write_text("\n".join(lines))


TRAJECTORY = Path("amplify-trace_figure_preset") / "trajectory_biased_1.csv"
PERTURBATIONS = {
    "label_flipped": _flip_label,
    "float_moved_1e-9": lambda root: _move_float(root / TRAJECTORY, 5, 1, 1e-9),
    "file_dropped": lambda root: (root / "cluster-quantum_two_blobs" / "comparison.txt").unlink(),
    "file_added": lambda root: (root / "graph_two_blobs" / "extra.csv").write_text("index\n0\n"),
    "exit_code_changed": lambda root: _replace(root / "graph_figure_preset.log",
                                               "exit 2", "exit 1"),
    "stderr_word_changed": lambda root: _replace(root / "graph_figure_preset.log",
                                                 "provide", "produce"),
}


@pytest.mark.parametrize("perturb", PERTURBATIONS.values(), ids=PERTURBATIONS)
def test_perturbed_golden_fails(outputs, tmp_path, perturb):
    golden = tmp_path / "golden"
    shutil.copytree(GOLDEN, golden)
    perturb(golden)
    assert differences(golden, outputs)


def test_float_moved_within_tolerance_passes(outputs, tmp_path):
    golden = tmp_path / "golden"
    shutil.copytree(GOLDEN, golden)
    _move_float(golden / TRAJECTORY, 5, 1, 1e-14)
    assert (golden / TRAJECTORY).read_bytes() != (GOLDEN / TRAJECTORY).read_bytes()
    assert differences(golden, outputs) == []


if __name__ == "__main__":
    shutil.rmtree(GOLDEN, ignore_errors=True)
    run_all(GOLDEN)
    print(f"wrote {sum(1 for p in GOLDEN.rglob('*') if p.is_file())} files under {GOLDEN}")
