"""Dynamic directed graph substrate.

This subpackage implements the graph model of the paper: a directed graph
subject to a stream of edge updates, where an arriving edge ``(u, v)`` is
an *insert* if absent and a *delete* if present (Section II-B of the
paper).  It also provides synthetic generators used as stand-ins for the
paper's real datasets, and plain-text edge-list I/O.
"""
