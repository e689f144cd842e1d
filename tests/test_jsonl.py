import ast
import gc
import json
import re
from pathlib import Path

import numpy as np
import pytest

from pite import pipeline
from pite.jsonl import DataError, read_jsonl, text, unique


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


@pytest.mark.parametrize(
    "value, error",
    [(True, TypeError), (7, TypeError), (["a"], TypeError), (None, TypeError), ("", ValueError)],
)
def test_text_reads_only_a_nonempty_string(value, error):
    assert text("a dog", "caption") == "a dog"
    with pytest.raises(error, match=f"^{re.escape(f'caption must be a nonempty string, got {value!r}')}$"):
        text(value, "caption")


def test_unique_compares_the_typed_value(tmp_path):
    path = tmp_path / "ids.jsonl"
    path.write_text('{"id": 1}\n{"id": "1"}\n{"id": 1}\n')
    with pytest.raises(DataError, match=f"^{path}:3: ValueError: repeated id 1$"):
        list(read_jsonl(path, unique(lambda record: record["id"], "id")))


def test_only_jsonl_checks_for_bool():
    """``isinstance(..., bool)`` marks a hand-written JSON type check; those belong in jsonl.py."""
    offenders = []
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "pite").glob("*.py")):
        if path.name == "jsonl.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance" and len(node.args) == 2:
                kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
                if any(getattr(kind, "id", None) == "bool" for kind in kinds):
                    offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def nodes_outside(trainer_function: str, skip: str = ""):
    """``(file name, node)`` for each AST node of src/pite outside ``trainer.<trainer_function>``."""
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "pite").glob("*.py")):
        if path.name == skip:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        inside = {
            id(node)
            for func in ast.walk(tree)
            if isinstance(func, ast.FunctionDef) and (path.name, func.name) == ("trainer.py", trainer_function)
            for node in ast.walk(func)
        }
        yield from ((path.name, node) for node in ast.walk(tree) if id(node) not in inside)


def test_only_jsonl_names_exception_types():
    """``type(exc).__name__`` marks a hand-written exception-to-DataError translation; ``naming`` is the one.

    ``trainer._load_npz`` keeps its own: it names a damaged binary archive, not a record.
    """
    offenders = [
        f"{name}:{node.lineno}"
        for name, node in nodes_outside("_load_npz", skip="jsonl.py")
        if isinstance(node, ast.Attribute)
        and node.attr == "__name__"
        and isinstance(node.value, ast.Call)
        and getattr(node.value.func, "id", None) == "type"
    ]
    assert offenders == []


def test_only_load_npz_calls_np_load():
    """``trainer._load_npz`` is the one reader of trainer files, so every array they hold meets its spec."""

    def is_np_load(node):
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "load"
            and getattr(node.func.value, "id", None) in ("np", "numpy")
        )

    trainer = ast.parse((Path(__file__).resolve().parents[1] / "src" / "pite" / "trainer.py").read_text())
    assert sum(map(is_np_load, ast.walk(trainer))) == 1  # the matcher finds the call inside _load_npz
    assert [f"{name}:{node.lineno}" for name, node in nodes_outside("_load_npz") if is_np_load(node)] == []


def test_only_save_npz_calls_np_savez():
    """``trainer._save_npz`` is the one writer of trainer files, so each is stored the same way."""

    def is_np_save(node):
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("save", "savez", "savez_compressed")
            and getattr(node.func.value, "id", None) in ("np", "numpy")
        )

    trainer = ast.parse((Path(__file__).resolve().parents[1] / "src" / "pite" / "trainer.py").read_text())
    assert sum(map(is_np_save, ast.walk(trainer))) == 1  # the matcher finds the call inside _save_npz
    assert [f"{name}:{node.lineno}" for name, node in nodes_outside("_save_npz") if is_np_save(node)] == []


def test_only_pack_rows_builds_a_packed_batch():
    """Samples files and in-memory samples become a batch through ``toymodel.pack_rows`` alone.

    It runs ``_check_samples`` once, before it builds the batch, and nothing else calls the check or
    makes a batch another way (``_make``, ``_replace``), so no batch skips the check against the config.
    """

    def calls(node, name):
        return isinstance(node, ast.Call) and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))

    src = Path(__file__).resolve().parents[1] / "src" / "pite"
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(src.glob("*.py"))}
    nodes = [(name, node) for name, tree in trees.items() for node in ast.walk(tree)]
    pack_rows = next(
        node for node in ast.walk(trees["toymodel.py"]) if isinstance(node, ast.FunctionDef) and node.name == "pack_rows"
    )
    builds = [node for node in ast.walk(pack_rows) if calls(node, "PackedBatch")]
    checks = [node for node in ast.walk(pack_rows) if calls(node, "_check_samples")]
    assert sum(calls(node, "PackedBatch") for _, node in nodes) == len(builds) == 1
    assert sum(calls(node, "_check_samples") for _, node in nodes) == len(checks) == 1
    assert checks[0].lineno < builds[0].lineno
    assert [f"{name}:{node.lineno}" for name, node in nodes if calls(node, "_make") or calls(node, "_replace")] == []


def test_only_the_file_rules_spell_rle_and_coords():
    """A mask file's ``rle`` runs and a record matrix's ``coords`` are each spelled by one reader and one writer.

    Each string constant is charged to its innermost enclosing function, or to None at module level.
    """
    found = set()
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "pite").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {}
        for func in ast.walk(tree):  # breadth first, so an inner function overwrites its outer one
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((id(node), func.name) for node in ast.walk(func))
        found.update(
            (node.value, path.name, owner.get(id(node)))
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and node.value in ("rle", "coords")
        )
    assert found == {
        ("rle", "tracks.py", "load_mask"),
        ("rle", "tracks.py", "save_mask"),
        ("coords", "tracks.py", "matrix_from_json"),
        ("coords", "tracks.py", "matrix_to_json"),
    }


def test_src_lists_no_directory():
    """Every input is found by a path built from its id (``np_slug`` for masks), never by a directory listing."""

    def lists_directory(node):
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        if isinstance(func, ast.Name):
            return func.id in ("glob", "iglob", "listdir", "scandir", "walk")
        return isinstance(func, ast.Attribute) and (
            func.attr in ("glob", "iglob", "rglob", "iterdir")
            or (func.attr in ("listdir", "scandir", "walk") and getattr(func.value, "id", None) == "os")
        )

    probes = ["d.glob('*.json')", "d.rglob('*')", "d.iterdir()", "os.listdir(d)", "os.scandir(d)", "os.walk(d)"]
    assert all(lists_directory(ast.parse(probe).body[0].value) for probe in probes)
    src = Path(__file__).resolve().parents[1] / "src" / "pite"
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if lists_directory(node)
    ]
    assert offenders == []
