"""Reference oracles for the greedy engines: the scalar loops, the
brute-force argmin and the paper's two-stream PARTITION."""
