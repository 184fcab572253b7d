#!/usr/bin/env python3
"""Check that a change keeps every output byte of the CLI and the scripts.

    python3 scripts/compare_outputs.py --parent <commit>

The parent commit's files are written with ``git archive`` into a temporary
directory (removed afterwards), so the repository itself is not touched; the
change is this checkout's working tree.
On each side, with that side's ``src`` on PYTHONPATH, it runs:

- every CLI verb on ``configs/two_blobs.yaml`` and ``configs/figure_preset.yaml``;
- on two configs that the script writes into the temporary tree, so that both
  sides run the same file: ``amplify-trace`` on the figure preset under the
  verbatim iterate (the one-line config ``pea: {standard_grover: false}``),
  and ``graph`` and ``cluster-classical`` on 16 moons points with a laplacian
  target and the normalized Laplacian variant;
- ``python -m qspectral.cli selftest``.

Each run writes into its own directory of the side's output tree, and its exit
code, standard output and standard error (with the side's paths replaced by
placeholders) go to ``<run>.log`` beside it.  Every file of the two trees is
compared byte for byte; the script lists each file that differs or exists on
one side only and exits 1 if there is any, 0 otherwise.  Uses the standard
library only.
"""

from __future__ import annotations

import argparse
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
VERBS = ("graph", "cluster-classical", "amplify-trace", "cluster-quantum")
CONFIGS = ("two_blobs", "figure_preset")
# name: (config text, the verbs run on it)
WRITTEN_CONFIGS = {
    "verbatim": ("pea: {standard_grover: false}\n", ("amplify-trace",)),
    "normalized": ("seed: 2\ndataset: {kind: moons, n: 16, noise: 0.2}\n"
                   "target: laplacian\nvariant: normalized\n", ("graph", "cluster-classical")),
}


def export_commit(commit: str, dest: Path) -> None:
    """Write the files of ``commit`` into the new directory ``dest``."""
    archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT, check=True,
                             capture_output=True).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def runs(written: Path) -> list[tuple[str, list[str]]]:
    """(name, arguments after the interpreter) of every run, with each of
    :data:`WRITTEN_CONFIGS` at ``written/<name>.yaml``; ``{out}`` is the run's
    output directory."""
    plan = [(config, f"configs/{config}.yaml", VERBS) for config in CONFIGS]
    plan += [(config, str(written / f"{config}.yaml"), verbs)
             for config, (_, verbs) in WRITTEN_CONFIGS.items()]
    out = [(f"{verb}_{config}", ["-m", "qspectral.cli", verb, "--config", path, "--out", "{out}"])
           for config, path, verbs in plan for verb in verbs]
    out.append(("selftest", ["-m", "qspectral.cli", "selftest"]))
    return out


def run_side(checkout: Path, out_root: Path, written: Path) -> None:
    """Every run of :func:`runs` in ``checkout``, written under ``out_root``."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    for name, args in runs(written):
        out = out_root / name
        done = subprocess.run([sys.executable, *(a.replace("{out}", str(out)) for a in args)],
                              cwd=checkout, env=env, capture_output=True, text=True)
        log = f"exit {done.returncode}\n--- stdout\n{done.stdout}--- stderr\n{done.stderr}"
        for path, placeholder in ((out_root, "<out>"), (checkout, "<checkout>")):
            log = log.replace(str(path), placeholder)
        (out_root / f"{name}.log").write_text(log)


def differing(left: Path, right: Path) -> list[str]:
    """Relative paths of the files that differ between two trees, or that
    only one of them holds."""
    files = {side: {p.relative_to(side).as_posix() for p in side.rglob("*") if p.is_file()}
             for side in (left, right)}
    return sorted(name for name in files[left] | files[right]
                  if name not in files[left] or name not in files[right]
                  or (left / name).read_bytes() != (right / name).read_bytes())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="commit the working tree is compared with")
    args = parser.parse_args(argv)
    parent_commit = subprocess.run(["git", "rev-parse", args.parent], cwd=ROOT, check=True,
                                   capture_output=True, text=True).stdout.strip()
    with tempfile.TemporaryDirectory() as tmp:
        parent_dir, outputs = Path(tmp) / "parent", Path(tmp) / "outputs"
        export_commit(parent_commit, parent_dir)
        for config, (text, _) in WRITTEN_CONFIGS.items():
            (Path(tmp) / f"{config}.yaml").write_text(text)
        for side, checkout in (("parent", parent_dir), ("change", ROOT)):
            (outputs / side).mkdir(parents=True)
            run_side(checkout, outputs / side, Path(tmp))
        names = differing(outputs / "parent", outputs / "change")
        compared = sum(1 for p in (outputs / "parent").rglob("*") if p.is_file())
    for name in names:
        print(f"differs: {name}")
    print(f"{len(names)} files differ; the parent ({parent_commit[:12]}) wrote {compared}",
          file=sys.stderr)
    return 1 if names else 0


if __name__ == "__main__":
    sys.exit(main())
