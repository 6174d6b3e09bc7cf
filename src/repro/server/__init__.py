"""Analysis-as-a-service: the long-lived daemon over warm analysis state.

The one-shot CLI tears down the interning tables and transfer memos
between invocations; this package keeps them alive in a long-lived
asyncio daemon and serves them to many concurrent clients over a small
length-prefixed JSON protocol.

* :mod:`.protocol` — the frame layout, op vocabulary and error codes;
* :mod:`.service` — :class:`AnalysisService`, the warm shared state
  (server-lifetime transfer cache + optional disk store + merged stats +
  the held ``reanalyze`` session) and the request handlers over it;
* :mod:`.daemon` — :class:`AnalysisServer`, the asyncio socket server
  with its bounded worker pool, per-request timeouts and graceful drain;
* :mod:`.client` — :class:`AnalysisClient`, the synchronous client the
  ``repro client`` CLI and the protocol test-suites share.
"""

from .client import AnalysisClient, ProtocolMismatch, ServerError
from .daemon import AnalysisServer, ServerConfig, run_server
from .protocol import DEFAULT_MAX_FRAME, PROTOCOL_VERSION, SERVER_NAME
from .service import AnalysisService, RequestError

__all__ = [
    "AnalysisClient",
    "AnalysisServer",
    "AnalysisService",
    "DEFAULT_MAX_FRAME",
    "PROTOCOL_VERSION",
    "ProtocolMismatch",
    "RequestError",
    "SERVER_NAME",
    "ServerConfig",
    "ServerError",
    "run_server",
]
