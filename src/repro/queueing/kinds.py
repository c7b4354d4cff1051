"""The two request kinds, importable without the workload generators."""

QUERY = "query"
UPDATE = "update"
