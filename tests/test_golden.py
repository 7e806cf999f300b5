"""The compact pipeline's artifacts have the bytes recorded in ``DIGESTS``.

Every command runs once, in one child process with ``OPENBLAS_NUM_THREADS=1``, relative
paths and seed 17; the test compares each file the pipeline writes with its SHA-256 here.
The README's determinism contract covers one build and thread count, since another BLAS
sums the dense layers' GEMMs in another order; so ``DIGESTS`` holds one table per build it
was recorded on (numpy's version and the configuration string of the OpenBLAS it loaded, its
kernel core among them), and on any other build the test skips, naming them and this one.
A DYNAMIC_ARCH OpenBLAS picks its kernel core from the CPU when it loads, and
``OPENBLAS_CORETYPE`` overrides that pick, so one CPU can record the table of either core
(``OPENBLAS_CORETYPE=Haswell`` on a SkylakeX CPU).

A change that moves bytes on purpose re-records every table: ``python tests/test_golden.py``,
run once under each core, runs the pipeline and prints that build's entry of ``DIGESTS`` in
this file's format, to paste here.
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

# The SHA-256 of each artifact, by relative path, one table per build it was recorded on.
DIGESTS = {
    "numpy 2.4.6, OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH NO_AFFINITY SkylakeX MAX_THREADS=64": {
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
        "fig2/records.csv": "7b5239e2ac8c522f7d4ef2a7ec060cff8aa50ffcba591d558c09b1b8d739ecef",
        "fig2/summary.csv": "b2817614da477f42116fee00c7aa30c5b09dcdedb49fd5b3b12b74946a860976",
        "fig3/config.ini": "8f6bdbbb18d5af8a43785a2ac6366b4476206ea33832f8eb570107bed64962c5",
        "fig3/records.csv": "ece531cbc5d1cdc8afdb8f7c8dbf0ef4048c45011bec3896ff47f4f4b311a213",
        "fig3/summary.csv": "9db63ad12c0647bbb66bd2398b93703739b9bd2fa4b660bb10bfbebfc3d9d243",
        "rec1-engineered/config.ini": "673803b889848fbdb6ca909f75426054674bae5771342af18447026242243557",
        "rec1-engineered/fidelity.csv": "1fd971736da6e370e6a8b0411d010032fc42959df73417f5deed9d6f97ceec71",
        "rec1-engineered/states.qstst": "39603136b86f5af7f3c7f39972b9743aa11cd016f1c712f7651a482cdc82e6d1",
        "rec1-zero/config.ini": "a7dd33e5321c2b73c0dd40a3c9342ac8a2734c9c20e0fc3a6e9f05db08f0b38e",
        "rec1-zero/fidelity.csv": "31ec0b2fbfbea1e7a68bdcd6399c9ca8043145043b9565c886029c7d4b05a744",
        "rec1-zero/states.qstst": "faa1f4565b89bf7b1eb173df65402732c02e5d29854c6d1f24834431b473474e",
        "resume3/checkpoint.qstck": "3b0f1538358c5c0b9d09cc2df96d59a44e52bc73271521aa6a679cc0138775f1",
        "resume3/config.ini": "c86fa53fcfc1b3b7c6907a03e06677776e1bea519e9c3775c7cd149650dd1b4f",
        "resume3/history.csv": "d9bff37d24957402ebffd7922ac58e84cf5ffa43a8611f3850d3ec206d487878",
        "train2/checkpoint.qstck": "e8f686fb74b74439483dd7de794e49fe2f3b4c84cdefb07268abe626df1532b5",
        "train2/config.ini": "2805a4ae28cf24fa9802d04cda523e1031511beffcc0c7ad36a5fb28f8ddb7b9",
        "train2/history.csv": "6cac911e146169f6ebd35c8aeff0978a8aff602514a1a75962b380a361119525",
        "train3/checkpoint.qstck": "7547c9d5a8f1c29e8193c0519fb7be43a7b826a493073cee1170c40e8df1bd56",
        "train3/config.ini": "56d629e18b7d8c26f5e33cb48a87ddb75cddfc5d762bb5292efd496f2e43fa34",
        "train3/history.csv": "89d2d914968db8cf69336addffe92a2593598e6199b90da28191cd025f5ee3ce",
        "train3-b25/checkpoint.qstck": "2578e7baa3905a442042e2d7a3fed38cb8110f3d140ad0a56dac5be2b58d6a1c",
        "train3-b25/config.ini": "4af8065c119176f540ff2a266af69e0544e03177a2e1edf7665ea0ca34dbb636",
        "train3-b25/history.csv": "c0e22261c65da2bc59871c51beb790154f6bb8773a0c83142eacdad08ad98038",
    },
    "numpy 2.4.6, OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH NO_AFFINITY Haswell MAX_THREADS=64": {
        "baselines/config.ini": "6aef800ad947218e38bb3804568324251a582bdbed319158b09a4267280c4276",
        "baselines/summary.csv": "98d96204d3e68a01630f35320002648bac14d1815f13e6c27c579a0feb624fa7",
        "data/bures2.qst": "c0227ac70a57a026f1ad7552cde71314e7379bc3292ad1e66ae3c62538a0ae5c",
        "data/bures2.qst.config.ini": "c9363fdfd2937c8dd6f53a4034dafab30bada77cdd465623a52e7af8b50a0e19",
        "data/hs1.qst": "2fa30368419e612323d5f4785c4fdecb630e7820e62f07b4e8585780d9c6401d",
        "data/hs1.qst.config.ini": "79df9c1b3f36e56785f5ba12d51b1515e3df7f9e36e6988d837372a6f534b955",
        "data/hs2.qst": "95877e64c4fb6ddc77ac589e9c27e32b51f140de766e839e45c8ac174f48a387",
        "data/hs2.qst.config.ini": "86836d5f399052c7912fec44b4edc7c7471550c2a66f1674c0738204e3703416",
        "data/hs3.qst": "fd301d1800ed2022b44f34ea146f94d0478bdacd64ad623a6ddc4d836253db23",
        "data/hs3.qst.config.ini": "8d52353b6b49e57562ed92491379987b116bc3556da7735faf07efdbda8cda81",
        "fig2/config.ini": "eecc8c06d6bf5dd33e9e796a4b66f2c75dca511d43177c8894446b305c520be2",
        "fig2/records.csv": "7b5239e2ac8c522f7d4ef2a7ec060cff8aa50ffcba591d558c09b1b8d739ecef",
        "fig2/summary.csv": "b2817614da477f42116fee00c7aa30c5b09dcdedb49fd5b3b12b74946a860976",
        "fig3/config.ini": "8f6bdbbb18d5af8a43785a2ac6366b4476206ea33832f8eb570107bed64962c5",
        "fig3/records.csv": "ece531cbc5d1cdc8afdb8f7c8dbf0ef4048c45011bec3896ff47f4f4b311a213",
        "fig3/summary.csv": "9db63ad12c0647bbb66bd2398b93703739b9bd2fa4b660bb10bfbebfc3d9d243",
        "rec1-engineered/config.ini": "673803b889848fbdb6ca909f75426054674bae5771342af18447026242243557",
        "rec1-engineered/fidelity.csv": "1fd971736da6e370e6a8b0411d010032fc42959df73417f5deed9d6f97ceec71",
        "rec1-engineered/states.qstst": "313607887574c01f816a981b6eb6ee3195eb39363a5a02068d5fcc9514eee14d",
        "rec1-zero/config.ini": "a7dd33e5321c2b73c0dd40a3c9342ac8a2734c9c20e0fc3a6e9f05db08f0b38e",
        "rec1-zero/fidelity.csv": "31ec0b2fbfbea1e7a68bdcd6399c9ca8043145043b9565c886029c7d4b05a744",
        "rec1-zero/states.qstst": "c2dd2ac664f40825c3c27e655b46de66bbb319a841a7d92664c699a5a06fd596",
        "resume3/checkpoint.qstck": "313e479e1475d367caabbf30255f9482b36026a1ec8c11421c269a428394fe4d",
        "resume3/config.ini": "c86fa53fcfc1b3b7c6907a03e06677776e1bea519e9c3775c7cd149650dd1b4f",
        "resume3/history.csv": "d9bff37d24957402ebffd7922ac58e84cf5ffa43a8611f3850d3ec206d487878",
        "train2/checkpoint.qstck": "5696e29e885008e5ae02a6389953607bfd3ca1a471aa002d295c4d785b4c87e8",
        "train2/config.ini": "2805a4ae28cf24fa9802d04cda523e1031511beffcc0c7ad36a5fb28f8ddb7b9",
        "train2/history.csv": "6cac911e146169f6ebd35c8aeff0978a8aff602514a1a75962b380a361119525",
        "train3/checkpoint.qstck": "c995026a96b7d805cd36a80feaaeb96782e1e80780c5279155fb84259306ac2a",
        "train3/config.ini": "56d629e18b7d8c26f5e33cb48a87ddb75cddfc5d762bb5292efd496f2e43fa34",
        "train3/history.csv": "89d2d914968db8cf69336addffe92a2593598e6199b90da28191cd025f5ee3ce",
        "train3-b25/checkpoint.qstck": "7fba0f46552832922218aa8e054eb8cae2a79ca136389cb500f81591df9158fb",
        "train3-b25/config.ini": "4af8065c119176f540ff2a266af69e0544e03177a2e1edf7665ea0ca34dbb636",
        "train3-b25/history.csv": "c0e22261c65da2bc59871c51beb790154f6bb8773a0c83142eacdad08ad98038",
    },
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
    here = build()
    if here not in DIGESTS:
        pytest.skip(f"digests recorded on {' and '.join(map(repr, DIGESTS))}; "
                    f"this build is {here!r}")
    table, digests = DIGESTS[here], run_pipeline(tmp_path)
    moved = sorted(path for path in digests.keys() | table.keys()
                   if digests.get(path) != table.get(path))
    assert not moved, f"artifacts moved from their digests on {here!r}: {', '.join(moved)}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as root:
        table = run_pipeline(Path(root))
    print(f"    {json.dumps(build())}: {{")
    for path, digest in table.items():
        print(f"        {json.dumps(path)}: {json.dumps(digest)},")
    print("    },")
