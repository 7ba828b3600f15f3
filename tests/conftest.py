import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

import lgsqe

settings.register_profile("default", deadline=None, max_examples=60)
settings.load_profile("default")

_ACCEPTANCE_RESULTS: list[tuple[str, str]] = []


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when == "call" and "test_acceptance" in item.nodeid:
        _ACCEPTANCE_RESULTS.append((item.name, report.outcome))


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name, outcome in sorted(_ACCEPTANCE_RESULTS):
        status = "PASS" if outcome == "passed" else outcome.upper()
        terminalreporter.write_line(f"{name}: {status}")


@pytest.fixture(scope="session")
def small_images():
    """A quick structured 16x16 grayscale set shared by module tests."""
    return lgsqe.stroke_images(80, side=16, seed=7)


@pytest.fixture(scope="session")
def small_pipeline(small_images):
    """A tiny fitted pipeline: 80 real vs 80 noise-degraded images."""
    generated = lgsqe.gaussian_degrade(lgsqe.stroke_images(80, side=16, seed=8), 0.25, seed=9)
    config = lgsqe.RunConfig(
        patch_size=3,
        stride=2,
        top_k=30,
        gbdt=lgsqe.GbdtParams(n_rounds=15, max_depth=2, min_samples_leaf=2),
    )
    model, _ = lgsqe.fit_pipeline(small_images, generated, config)
    return model, small_images, generated


def random_image_set(count, side=8, channels=1, seed=0, provenance="real"):
    rng = np.random.default_rng(seed)
    pixels = rng.random((count, side, side, channels), dtype=np.float32)
    return lgsqe.ImageSet(pixels, provenance)


def unchunked_representation(hop, cw, images):
    """The full representation from whole-set calls: apply, pool, then each
    channel's map projected onto its c/w kernel matrix."""
    pooled = lgsqe.abs_max_pool(lgsqe.apply_saab(hop, images))
    n, size = images.count, hop.pooled_side**2
    spatial = pooled.reshape(n, int(np.prod(pooled.shape[1:])))
    spectral = [
        np.einsum("ij,kj->ik", np.ascontiguousarray(pooled[..., ch].reshape(n, size)), matrix)
        for ch, matrix in enumerate(cw)
    ]
    return np.concatenate([spatial, *spectral], axis=1)


def traced_peak(fn):
    """(result, traced peak bytes above the start) of ``fn()``; numpy reports its buffers to tracemalloc."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def image_file_bytes(side=4) -> dict[str, tuple[bytes, list[int]]]:
    """A small valid file per format (two side x side grayscale images for IDX
    and LGT, two CIFAR records) with the offsets of its header bytes."""
    rng = np.random.default_rng(side)
    idx = struct.pack(">IIII", 0x00000803, 2, side, side)
    idx += rng.integers(0, 256, 2 * side * side, dtype=np.uint8).tobytes()
    records = rng.integers(0, 256, (2, 3073), dtype=np.uint8)
    records[:, 0] = [3, 7]  # CIFAR-10 label bytes
    lgt = b"LGT1" + struct.pack("<IIII", 2, side, side, 1) + bytes([1])
    lgt += rng.random(2 * side * side, dtype=np.float32).astype("<f4").tobytes()
    return {
        "idx": (idx, list(range(16))),
        "cifar": (records.tobytes(), [0, 3073]),
        "lgt": (lgt, list(range(21))),
    }


def damaged_file(data, fmt: str, side: int = 4) -> bytes:
    """Draw a damaged file of format ``fmt``: a truncated valid file, one with
    corrupted header bytes, or (IDX and LGT) a header with small random shape
    fields and a payload of exactly the length they declare."""
    raw, header = image_file_bytes(side)[fmt]
    how = data.draw(st.sampled_from(["truncate", "corrupt"] + (["forge"] if fmt != "cifar" else [])), label="how")
    if how == "truncate":
        return raw[: data.draw(st.integers(0, len(raw) - 1), label="cut")]
    if how == "forge":
        fields = 3 if fmt == "idx" else 4
        shape = data.draw(st.lists(st.integers(0, 4), min_size=fields, max_size=fields), label="shape")
        size = int(np.prod(shape))
        if fmt == "idx":
            return struct.pack(">IIII", 0x00000803, *shape) + bytes(size)
        return b"LGT1" + struct.pack("<IIII", *shape) + bytes([1]) + np.full(size, 0.5, dtype="<f4").tobytes()
    out = bytearray(raw)
    edits = st.tuples(st.sampled_from(header), st.integers(0, 255))
    for offset, value in data.draw(st.lists(edits, min_size=1, max_size=4), label="edits"):
        out[offset] = value
    return bytes(out)
