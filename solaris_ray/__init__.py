"""solaris_ray — a Ray-Data-native geospatial data-processing engine.

A from-scratch reimplementation of the query/data-processing
capabilities of CosmiQ/solaris (reference at /root/reference, cited by
file:line in docstrings) expressed as ``ray.data.Dataset`` pipelines:

- raster tiling  (reference: solaris/tile/raster_tile.py)  -> stages.tiler
- vector tiling / spatial join (solaris/tile/vector_tile.py) -> stages.joins, stages.tiler
- mask generation (solaris/vector/mask.py)                  -> stages.masks
- IoU / F1 evaluation (solaris/eval/base.py, scot.py)       -> stages.evaluate
- geometry + CRS utilities (solaris/utils/geo.py, vector/polygon.py) -> geom.*
- inference chipping / stitching (solaris/nets/datagen.py, raster/image.py) -> stages.infer

Everything runs over zero-copy Arrow batches (``batch_format="pyarrow"``
or numpy), with ``runtime.stateful_map`` for stateful stages and explicit
cell-partitioned shuffles for the wide spatial joins.  No GDAL, no
shapely: geometry kernels are pure numpy (geom/), raster kernels are
pure numpy (raster/), image codecs are stdlib zlib PNG (raster/codec.py).

Nothing in this package calls ``ray.init()``/``ray.shutdown()`` —
sessions are owned by the caller (bench.py, tests/conftest.py, CLI).
"""

__version__ = "0.1.0"
