"""The compact pipeline's artifacts have the bytes recorded in ``DIGESTS``.

Every command runs once, in one child process with ``OPENBLAS_NUM_THREADS=1``, relative
paths and seed 17; the test compares each file the pipeline writes with its SHA-256 here.
The README's determinism contract covers one build and thread count, since another BLAS
sums the dense layers' GEMMs in another order; so the table holds for the ``BUILD`` it was
recorded with (numpy's version and the configuration string of the OpenBLAS it loaded, its
kernel core among them), and on any other build the test skips, naming both.

A change that moves bytes on purpose re-records the table: ``python tests/test_golden.py``
runs the pipeline and prints ``BUILD`` and ``DIGESTS`` in this file's format, to paste here.
"""

import ctypes
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

_S = ("--seed", "17")
_VAL = ("--val-count", "20")
PIPELINE = [
    ("generate", "--m", "1", "--count", "120", *_S, "--out", "data/hs1.qst"),
    ("generate", "--m", "2", "--count", "120", *_S, "--out", "data/hs2.qst"),
    ("generate", "--m", "3", "--count", "120", *_S, "--out", "data/hs3.qst"),
    ("generate", "--m", "2", "--measure", "bures", "--count", "120", *_S,
     "--out", "data/bures2.qst"),
    ("train", "--dataset", "data/hs2.qst", "--epochs", "2", *_VAL, *_S, "--out-dir", "train2"),
    ("train", "--dataset", "data/hs3.qst", "--epochs", "2", *_VAL, *_S, "--out-dir", "train3"),
    ("train", "--dataset", "data/hs3.qst", "--epochs", "1", *_VAL, *_S,
     "--init-checkpoint", "train3/checkpoint.qstck", "--out-dir", "resume3"),
    ("train", "--dataset", "data/hs3.qst", "--epochs", "2", "--batch-size", "25", *_VAL, *_S,
     "--out-dir", "train3-b25"),
    ("reconstruct", "--checkpoint", "train3/checkpoint.qstck", "--input", "data/hs1.qst",
     "--mode", "engineered", "--out-dir", "rec1-engineered"),
    ("reconstruct", "--checkpoint", "train3/checkpoint.qstck", "--input", "data/hs1.qst",
     "--mode", "zero", "--out-dir", "rec1-zero"),
    ("experiment", "--name", "fig2", "--checkpoint", "train3/checkpoint.qstck",
     "--test-count", "50", *_S, "--out-dir", "fig2"),
    ("experiment", "--name", "fig3", "--checkpoint", "2=train2/checkpoint.qstck",
     "--checkpoint", "3=train3/checkpoint.qstck", "--test-count", "50", "--pairs", "300",
     *_S, "--out-dir", "fig3"),
    ("baselines", "--measure", "bures", "--pairs", "300", "--dims", "2,4", *_S,
     "--out-dir", "baselines"),
]

# Runs each command through cli.main and exits with the first non-zero code.
_CHILD = ("import json, sys; from qstkit import cli; "
          "sys.exit(next((code for code in map(cli.main, json.loads(sys.argv[1])) if code), 0))")

BUILD = "numpy 2.4.6, OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH NO_AFFINITY SkylakeX MAX_THREADS=64"
DIGESTS = {
    "baselines/config.ini": "6aef800ad947218e38bb3804568324251a582bdbed319158b09a4267280c4276",
    "baselines/summary.csv": "98d96204d3e68a01630f35320002648bac14d1815f13e6c27c579a0feb624fa7",
    "data/bures2.qst": "4c20187af2f78e8137ead945130d6cb1e0da7c8327463f5b639c0df8d0289b2f",
    "data/bures2.qst.config.ini": "c9363fdfd2937c8dd6f53a4034dafab30bada77cdd465623a52e7af8b50a0e19",
    "data/hs1.qst": "ecb87627138f8078f2d5fc3243d550cf1eee6918fa1268c33b2b95418f76c4bc",
    "data/hs1.qst.config.ini": "79df9c1b3f36e56785f5ba12d51b1515e3df7f9e36e6988d837372a6f534b955",
    "data/hs2.qst": "a9ac05750ba640ebc8efe8349950ec9af02e36fbbb9ccc2aa33f234633a5479d",
    "data/hs2.qst.config.ini": "86836d5f399052c7912fec44b4edc7c7471550c2a66f1674c0738204e3703416",
    "data/hs3.qst": "a460fdb6055a5f6630b5e1f97c6d76773adcb2842f7745dffb732509e9ab20f6",
    "data/hs3.qst.config.ini": "8d52353b6b49e57562ed92491379987b116bc3556da7735faf07efdbda8cda81",
    "fig2/config.ini": "eecc8c06d6bf5dd33e9e796a4b66f2c75dca511d43177c8894446b305c520be2",
    "fig2/records.csv": "e0126941bbccf00f97a73fb653bdcc5845ec0b7ec5c083311d9b20a334333f6f",
    "fig2/summary.csv": "aab1301715254a304f1d4a9d7780d884cff4230c833653a1242eba464b02ed19",
    "fig3/config.ini": "8f6bdbbb18d5af8a43785a2ac6366b4476206ea33832f8eb570107bed64962c5",
    "fig3/records.csv": "7ce653b182d5d50f18a6a9bdfc5a94522b0ed709feb9cada7ff364fa23861722",
    "fig3/summary.csv": "9918ac6f2d86e8f42aa4234eaaa527e06ae0f94af09c4ac8151f8a23364ef650",
    "rec1-engineered/config.ini": "673803b889848fbdb6ca909f75426054674bae5771342af18447026242243557",
    "rec1-engineered/fidelity.csv": "1125bf888ad97ae17402e1d9cfa237a6cf9c1ee8a8055e71b2d508d02783ab11",
    "rec1-engineered/states.qstst": "40ab070819d587e0cd3fa6ae4a9d41cdd0ca193c3dc09b9609547142a1d7bb73",
    "rec1-zero/config.ini": "a7dd33e5321c2b73c0dd40a3c9342ac8a2734c9c20e0fc3a6e9f05db08f0b38e",
    "rec1-zero/fidelity.csv": "b4a60a328d6c18e29a4a9e70adc848c815874bcd79d04482b36c0312cd1a6d52",
    "rec1-zero/states.qstst": "1f5c25c459007f139a10a170cade63b761a08fd8397179327116f7e11fd3e694",
    "resume3/checkpoint.qstck": "edd196e216c8be8101aa7ecd642c299f9b88fc9a07fd39bcaa5cab4822707d61",
    "resume3/config.ini": "c86fa53fcfc1b3b7c6907a03e06677776e1bea519e9c3775c7cd149650dd1b4f",
    "resume3/history.csv": "bc09dda6ccb3b5012e437f626fe56184e6b74f773ee46250feec206773e776a2",
    "train2/checkpoint.qstck": "fff24c60ea77634b0911e081fb2578de4ca3056ad6041246b1ac978926fdb7c0",
    "train2/config.ini": "2805a4ae28cf24fa9802d04cda523e1031511beffcc0c7ad36a5fb28f8ddb7b9",
    "train2/history.csv": "88a5fd4c540a485909edc768ef54e7ba7be19c5e5a8605eb853f78d996f23706",
    "train3-b25/checkpoint.qstck": "ca83381f195499275abda6353d35a118a10ec5dab0cc6f1ea77a57d7440e6246",
    "train3-b25/config.ini": "4af8065c119176f540ff2a266af69e0544e03177a2e1edf7665ea0ca34dbb636",
    "train3-b25/history.csv": "42eacca5f45d64613875d809bcc175a6affdc015c979f06b3f8a74d4dc247459",
    "train3/checkpoint.qstck": "36d22e10175051b637e48aa0f8b21dea8eedfcd5206d177c1c1c8779ce68166c",
    "train3/config.ini": "56d629e18b7d8c26f5e33cb48a87ddb75cddfc5d762bb5292efd496f2e43fa34",
    "train3/history.csv": "c59028a9c78cb1fdf43d1325a493a198d4d47201ebda1bf80a833b87ad9f4f83",
}


def build() -> str:
    """numpy's version and the configuration of the OpenBLAS it loaded. A DYNAMIC_ARCH
    library picks its kernel core when it loads, so this asks the library itself:
    ``np.show_config`` gives the configuration numpy was built against, whose core is the
    build host's."""
    for lib in sorted((Path(np.__file__).parents[1] / "numpy.libs").glob("*openblas*")):
        get_config = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_config64_", None)
        if get_config is not None:
            get_config.restype = ctypes.c_char_p
            return f"numpy {np.__version__}, {get_config().decode()}"
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"numpy {np.__version__}, {blas['name']} {blas['version']}, kernel core unknown"


def run_pipeline(root: Path) -> dict[str, str]:
    """Run ``PIPELINE`` in ``root``; the SHA-256 of each file it wrote, by relative path."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", _CHILD, json.dumps(PIPELINE)], cwd=root,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return {path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*")) if path.is_file()}


def test_pipeline_bytes_match_the_recorded_table(tmp_path):
    if build() != BUILD:
        pytest.skip(f"digests recorded on {BUILD!r}; this build is {build()!r}")
    digests = run_pipeline(tmp_path)
    moved = sorted(path for path in digests.keys() | DIGESTS.keys()
                   if digests.get(path) != DIGESTS.get(path))
    assert not moved, f"artifacts moved from their digests on {BUILD!r}: {', '.join(moved)}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as root:
        table = run_pipeline(Path(root))
    print(f"BUILD = {json.dumps(build())}")
    print("DIGESTS = {")
    for path, digest in table.items():
        print(f"    {json.dumps(path)}: {json.dumps(digest)},")
    print("}")
