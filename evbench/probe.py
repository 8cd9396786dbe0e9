"""A fixed amount of work that gauges how fast the machine runs right now.

    python3 evbench/probe.py

run.py spawns this between the evrep commands, the same way it spawns them,
and scales every command's wall time by how long the probes just before
and just after it took (see "Speed probe" in README.md). The probe imports
nothing from evrep, so a change to evrep cannot move it. Its work mirrors
the commands' mix: interpreter start-up and `import numpy`, histograms and
a stable sort over event-like indices, fresh frame-sized arrays filled and
copied out as bytes, and a pure-Python loop over boxes.
"""

import numpy as np

CELLS = 2 * 360 * 640

rng = np.random.default_rng(0)
index = rng.integers(0, CELLS, size=400_000)
for _ in range(2):
    np.bincount(index, minlength=CELLS)
    np.argsort(index, kind="stable")
    frame = np.zeros((4, 360, 640), np.float32)
    frame.reshape(-1)[index] = 0.5
    frame.astype("<f4").tobytes()

boxes = rng.uniform(0, 300, size=(300, 4)).tolist()
overlap = 0.0
for x1, y1, w1, h1 in boxes:
    for x2, y2, w2, h2 in boxes[:100]:
        iw = min(x1 + w1, x2 + w2) - max(x1, x2)
        ih = min(y1 + h1, y2 + h2) - max(y1, y2)
        if iw > 0 and ih > 0:
            overlap += iw * ih
