import gc
import json

import numpy as np
import pytest

from pite import pipeline
from pite.jsonl import DataError, read_jsonl


@pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
def collector(request):
    """Run the test with the cyclic collector enabled or disabled; restore it afterwards."""
    before = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if before else gc.disable)()


@pytest.fixture
def records(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_text("".join(json.dumps({"n": n}) + "\n" for n in range(3)))
    return path


def test_read_jsonl_pauses_the_collector_only_while_parsing(records, collector):
    during = []

    def parse(record):
        during.append(gc.isenabled())
        return record["n"]

    between = [(n, gc.isenabled()) for n in read_jsonl(records, parse)]
    assert between == [(0, collector), (1, collector), (2, collector)]
    assert during == [False] * 3
    assert gc.isenabled() is collector


def test_read_jsonl_restores_the_collector_when_parse_raises(records, collector):
    def parse(record):
        if record["n"] == 1:
            raise ValueError("no ones")
        return record["n"]

    with pytest.raises(DataError, match=f"^{records}:2: ValueError: no ones$"):
        list(read_jsonl(records, parse))
    assert gc.isenabled() is collector


def test_read_jsonl_restores_the_collector_when_closed_mid_file(records, collector):
    reader = read_jsonl(records, lambda record: record["n"])
    assert next(reader) == 0
    reader.close()
    assert gc.isenabled() is collector


def test_reading_a_bench_sized_clip_runs_no_collection(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "v.jsonl"
    tracks = [
        {"xy": (rng.random((150, 2)) * 300).round(3).tolist(), "vis": (rng.random(150) < 0.9).tolist()}
        for _ in range(400)
    ]
    clip = {"clip_id": "v:0", "width": 640, "height": 360, "frames": 150, "tracks": tracks}
    path.write_text(json.dumps(clip) + "\n")
    del tracks, clip
    started = []

    def count(phase, info):
        if phase == "start":
            started.append(info["generation"])

    before = gc.isenabled()
    gc.enable()
    gc.collect()  # start from empty generation counts
    gc.callbacks.append(count)
    try:
        clips = list(pipeline.iter_clip_tracks(path))
    finally:
        gc.callbacks.remove(count)
        (gc.enable if before else gc.disable)()
    assert clips[0].tracks.xy.shape == (400, 150, 2)
    assert started == []
