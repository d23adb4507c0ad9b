"""Reference implementations the tests compare the package against.

``kedv_reference`` and ``pawr_reference`` are verbatim copies of
production code as it stood before an optimisation, never edited to
follow the package; ``realtime_events`` is the independent discrete-event
form of the Fig.-2 pipeline. Nothing here is imported by ``repro``.
"""
