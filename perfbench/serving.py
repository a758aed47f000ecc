"""Boot and tear down the in-process service the benchmark drives.

Both the set-up probe and the service load use :func:`booted_server`, so
``setup_s`` times the same boot the load runs. This module imports
nothing from ``repro`` at module level, so importing it adds no time to
the probe.
"""

from __future__ import annotations

import contextlib
import shutil
import tempfile
import threading
from pathlib import Path

#: Studies of the self-test's tiny runs and of the fixed-seed digest cell.
TINY_STUDIES = ("illustrative", "knuth-yao")


@contextlib.contextmanager
def booted_server(out_dir: Path):
    """A local-mode server with one job worker over a fresh store under
    *out_dir*, answering ``/healthz``; yields its base URL.

    On exit the server stops, its job worker finishes and the store is
    removed.
    """
    from repro.service.client import ServiceClient
    from repro.service.server import ServiceConfig, create_server

    out_dir.mkdir(parents=True, exist_ok=True)
    store_root = Path(tempfile.mkdtemp(prefix="store-", dir=out_dir))
    server = create_server(ServiceConfig(port=0, store_root=store_root, job_workers=1))
    serving = threading.Thread(target=server.serve_forever, name="perfbench-http")
    serving.start()
    try:
        host, port = server.server_address[:2]
        base_url = f"http://{host}:{port}"
        ServiceClient(base_url).health()
        yield base_url
    finally:
        server.shutdown()
        server.service.stop(timeout=60)
        server.server_close()
        serving.join(timeout=30)
        shutil.rmtree(store_root, ignore_errors=True)
