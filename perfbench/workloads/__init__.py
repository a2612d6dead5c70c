"""The four workloads, by name."""

from perfbench.workloads.browse import Browse
from perfbench.workloads.ingest import Ingest
from perfbench.workloads.serve import Serve
from perfbench.workloads.stream import Stream

WORKLOAD_CLASSES = {
    "browse": Browse, "ingest": Ingest, "serve": Serve, "stream": Stream,
}
