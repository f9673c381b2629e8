"""Input readers — Lance-first with Parquet fallback.

BASELINE.json mandates a Lance images table; this environment has no
``lance`` wheel, so ``read_images`` tries ``ray.data.read_lance`` and
falls back to Parquet (same schema; the engine is format-agnostic past
the read).  Column pruning is ALWAYS pushed down — a metadata-only
consumer (tile planner, join) must never lift pixel bytes off storage
(SURVEY.md 'prune at the read').

Read width.  Left to itself, Ray plans a read at one block per
``DataContext.target_min_block_size`` (1 MiB) of estimated in-memory
data, and at least two per CPU.  A shard file of megabyte-scale images
is then more blocks than files, so Ray splits every read task's output
(``ReadParquet->SplitBlocks(k)``), and its operator fusion refuses a
split read: the downstream ``map_batches`` (tile cutter, join) run as
separate operators, with the image bytes parked in the object store
between them and one task per split block.  ``read_images`` therefore
asks for ``read_blocks`` = ``max(cpus, min(n_files, file_bytes //
target_min_block_size))`` blocks, from one listing of the files in
the calling process.  While the session has no more CPUs than files
that is at most one block per file, so read -> cut -> join fuse into
one operator with one task per block.  Many small files are still
grouped into blocks of at least the minimum size, as Ray groups them;
a session with more CPUs than files still splits the read to use every
CPU.  The simpler ``max(n_files, cpus)`` fuses as well but gives every
small file its own task: at 1 CPU, 64 one-file tasks made a 64-shard
pass 1.5x slower than 18 grouped ones.  A caller's own
``override_num_blocks`` wins.
"""

from __future__ import annotations

from ..runtime import session_cpus

IMAGE_COLUMNS = ["image_id", "bytes", "w", "h", "fmt", "caption", "phash"]
META_COLUMNS = ["image_id", "w", "h", "fmt", "caption", "phash"]


def read_blocks(n_files: int, n_bytes: int, cpus: int) -> int:
    """Read blocks for ``n_files`` files of ``n_bytes`` on ``cpus`` CPUs:
    no more blocks than files nor than whole minimum-size blocks, and
    never fewer than the CPUs."""
    from ray.data import DataContext

    min_block = DataContext.get_current().target_min_block_size
    return max(cpus, min(n_files, n_bytes // min_block))


def read_images(path: str, columns: list[str] | None = None, **kwargs):
    """Read the images table (Lance if available/applicable, else
    Parquet).  ``columns=None`` reads everything; pass
    ``META_COLUMNS`` for plan-only pipelines so ``bytes`` stays in
    storage."""
    import pyarrow.dataset as pds
    import ray

    if path.endswith(".lance") or path.endswith("/lance"):
        try:
            return ray.data.read_lance(path, columns=columns, **kwargs)
        except (ImportError, AttributeError):
            pass  # no lance wheel: fall through to parquet twin
    if kwargs.get("override_num_blocks") is None:
        files = pds.dataset(path, format="parquet", filesystem=kwargs.get("filesystem"))
        infos = files.filesystem.get_file_info(files.files)
        kwargs["override_num_blocks"] = read_blocks(
            len(infos), sum(i.size for i in infos), session_cpus()
        )
    return ray.data.read_parquet(path, columns=columns, **kwargs)
