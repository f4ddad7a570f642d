"""The repo's macro benchmark: six paper workloads, eight end-to-end
metrics, and an outside-in per-layer trace.  See README.md here."""
