"""Numbers reported in the paper, for side-by-side comparison only.

The simulation never consumes these values; they appear in the
benchmark output so the reproduction's shape can be
checked against the original measurements (the authors ran 8–32 A100s;
we run a calibrated simulator, so absolute agreement is not expected —
orderings, trends and crossovers are).

``None`` marks configurations the paper reports as out-of-memory.
"""

from __future__ import annotations

#: Table 5 — methods on 1F1B.  Key: (gpus, seq, method) →
#: {"mfu": per-vocab list, "mem": per-vocab list}, vocab order
#: 32k/64k/128k/256k.
TABLE5: dict[tuple[int, int, str], dict[str, list[float | None]]] = {
    (8, 2048, "baseline"): {
        "mfu": [46.16, 40.48, 33.11, 25.23],
        "mem": [14.86, 16.32, 19.25, 25.64],
    },
    (8, 2048, "redis"): {
        "mfu": [46.01, 46.37, 44.22, 38.91],
        "mem": [14.86, 16.32, 19.25, 25.64],
    },
    (8, 2048, "vocab-1"): {
        "mfu": [50.42, 50.28, 49.93, 50.12],
        "mem": [15.63, 16.02, 16.84, 18.59],
    },
    (8, 2048, "vocab-2"): {
        "mfu": [50.23, 50.18, 49.82, 49.69],
        "mem": [14.83, 15.23, 16.04, 17.78],
    },
    (8, 2048, "interlaced"): {
        "mfu": [51.18, 50.94, 50.97, 50.92],
        "mem": [17.20, 17.57, 18.43, 20.17],
    },
    (8, 4096, "baseline"): {
        "mfu": [47.05, 41.87, 35.00, 26.75],
        "mem": [21.39, 22.85, 25.78, 31.64],
    },
    (8, 4096, "redis"): {
        "mfu": [46.93, 46.78, 47.44, 43.01],
        "mem": [21.39, 22.85, 25.78, 31.64],
    },
    (8, 4096, "vocab-1"): {
        "mfu": [50.98, 50.98, 50.83, 50.66],
        "mem": [24.04, 24.47, 25.41, 27.34],
    },
    (8, 4096, "vocab-2"): {
        "mfu": [50.93, 50.75, 50.56, 50.40],
        "mem": [22.44, 22.89, 23.80, 25.73],
    },
    (8, 4096, "interlaced"): {
        "mfu": [51.41, 51.82, 51.32, 51.38],
        "mem": [27.20, 27.64, 28.60, 30.53],
    },
    (16, 2048, "baseline"): {
        "mfu": [45.66, 40.09, 32.44, 24.21],
        "mem": [24.03, 25.98, 29.92, 38.71],
    },
    (16, 2048, "redis"): {
        "mfu": [45.56, 42.82, 38.65, 36.98],
        "mem": [24.03, 25.98, 29.92, 38.71],
    },
    (16, 2048, "vocab-1"): {
        "mfu": [49.02, 50.62, 50.54, 50.66],
        "mem": [24.37, 24.63, 25.14, 26.26],
    },
    (16, 2048, "vocab-2"): {
        "mfu": [48.90, 50.49, 50.46, 50.46],
        "mem": [23.57, 23.83, 24.35, 25.47],
    },
    (16, 2048, "interlaced"): {
        "mfu": [48.94, 48.97, 49.19, 49.52],
        "mem": [29.23, 29.47, 29.97, 31.10],
    },
    (16, 4096, "baseline"): {
        "mfu": [47.56, 41.21, 33.88, 25.33],
        "mem": [36.99, 38.94, 42.85, 50.90],
    },
    (16, 4096, "redis"): {
        "mfu": [47.41, 43.07, 43.15, 40.15],
        "mem": [36.99, 38.94, 42.85, 50.90],
    },
    (16, 4096, "vocab-1"): {
        "mfu": [50.93, 50.97, 50.71, 51.22],
        "mem": [39.46, 39.73, 40.31, 41.53],
    },
    (16, 4096, "vocab-2"): {
        "mfu": [50.97, 50.80, 50.68, 50.90],
        "mem": [37.89, 38.18, 38.77, 39.92],
    },
    (16, 4096, "interlaced"): {
        "mfu": [49.52, 49.53, 49.77, 49.84],
        "mem": [49.16, 49.44, 50.05, 51.28],
    },
    (32, 2048, "baseline"): {
        "mfu": [42.81, 37.28, 28.97, 20.86],
        "mem": [33.45, 35.89, 41.17, 52.16],
    },
    (32, 2048, "redis"): {
        "mfu": [43.48, 37.29, 36.32, 29.16],
        "mem": [33.45, 35.89, 41.17, 52.16],
    },
    (32, 2048, "vocab-1"): {
        "mfu": [45.85, 45.92, 45.90, 46.11],
        "mem": [33.38, 33.55, 33.86, 34.51],
    },
    (32, 2048, "vocab-2"): {
        "mfu": [45.54, 45.86, 45.86, 46.16],
        "mem": [32.72, 32.88, 33.20, 33.84],
    },
    (32, 2048, "interlaced"): {
        "mfu": [42.40, 42.43, 42.75, 43.25],
        "mem": [42.94, 43.09, 43.40, 44.07],
    },
    (32, 4096, "baseline"): {
        "mfu": [43.68, 38.11, 30.05, 21.63],
        "mem": [54.97, 57.41, 62.29, 73.05],
    },
    (32, 4096, "redis"): {
        "mfu": [44.01, 38.12, 37.87, 31.03],
        "mem": [54.97, 57.41, 62.29, 73.05],
    },
    (32, 4096, "vocab-1"): {
        "mfu": [46.41, 46.44, 46.68, 46.83],
        "mem": [57.41, 57.56, 57.88, 58.58],
    },
    (32, 4096, "vocab-2"): {
        "mfu": [46.23, 46.35, 46.55, 46.84],
        "mem": [56.09, 56.26, 56.61, 57.31],
    },
    (32, 4096, "interlaced"): {
        "mfu": [None, None, None, None],
        "mem": [None, None, None, None],
    },
}

#: Table 6 — V-Half.  Same shape as TABLE5; methods "vhalf-baseline"
#: and "vhalf-vocab-1".
TABLE6: dict[tuple[int, int, str], dict[str, list[float | None]]] = {
    (16, 2048, "vhalf-baseline"): {
        "mfu": [46.41, 38.52, 28.75, 19.99],
        "mem": [15.57, 19.77, 28.55, 46.77],
    },
    (16, 2048, "vhalf-vocab-1"): {
        "mfu": [52.82, 53.11, 53.41, 52.89],
        "mem": [13.20, 13.46, 13.98, 15.02],
    },
    (16, 4096, "vhalf-baseline"): {
        "mfu": [50.01, 41.17, 31.36, 21.90],
        "mem": [21.22, 25.61, 34.56, 53.11],
    },
    (16, 4096, "vhalf-vocab-1"): {
        "mfu": [58.69, 58.56, 58.44, 57.59],
        "mem": [20.14, 20.41, 20.96, 22.06],
    },
    (24, 2048, "vhalf-baseline"): {
        "mfu": [51.07, 43.13, 32.38, 22.54],
        "mem": [23.94, 29.12, 39.98, 61.71],
    },
    (24, 2048, "vhalf-vocab-1"): {
        "mfu": [56.70, 56.50, 55.72, 54.86],
        "mem": [21.08, 21.29, 21.72, 22.57],
    },
    (24, 4096, "vhalf-baseline"): {
        "mfu": [54.53, 45.96, 34.99, 24.31],
        "mem": [33.60, 38.97, 49.90, 72.60],
    },
    (24, 4096, "vhalf-vocab-1"): {
        "mfu": [60.09, 60.09, 59.42, 58.22],
        "mem": [32.55, 32.78, 33.22, 34.12],
    },
    (32, 2048, "vhalf-baseline"): {
        "mfu": [52.80, 45.56, 35.69, None],
        "mem": [34.11, 40.28, 53.22, None],
    },
    (32, 2048, "vhalf-vocab-1"): {
        "mfu": [57.70, 57.62, 57.69, 57.80],
        "mem": [30.85, 31.04, 31.42, 32.18],
    },
    (32, 4096, "vhalf-baseline"): {
        "mfu": [56.06, 48.17, 37.85, None],
        "mem": [48.84, 55.19, 68.12, None],
    },
    (32, 4096, "vhalf-vocab-1"): {
        "mfu": [60.10, 60.14, 60.72, 59.82],
        "mem": [47.99, 48.19, 48.59, 49.38],
    },
}

#: Table 3 — scaling factor (%) of partitioned vocabulary layers
#: relative to linear scaling at 256k vocabulary.
#: Key: (seq, layer) → per-GPU-count list for 8/16/32 GPUs.
TABLE3: dict[tuple[int, str], list[float]] = {
    (2048, "output-vocab-1"): [91.29, 84.22, 80.59],
    (2048, "output-vocab-2"): [86.72, 79.84, 75.93],
    (2048, "input"): [39.99, 28.85, 15.18],
    (4096, "output-vocab-1"): [93.21, 88.02, 85.24],
    (4096, "output-vocab-2"): [88.36, 83.42, 79.66],
    (4096, "input"): [27.69, 15.52, 8.35],
}

#: Appendix B.2 — removing the interlaced pipeline's synchronous
#: all-reduces improved end-to-end iteration time by 10.95 % (32 GPUs,
#: 21.5B model).
INTERLACED_SYNC_ABLATION_SPEEDUP = 10.95
