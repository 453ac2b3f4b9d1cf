"""Replicate paths drawn in batches through the simulators' list-of-Generators form."""

from netar import simulate_nar


def batched_paths(net, spec, innov, n, burn_in, rngs, size=50):
    """Each replicate's network of ``burn_in + n`` snapshots and its ``(d, n)`` path after
    ``burn_in``, in the order of ``rngs``: what ``net.simulate`` and then
    ``simulate_nar`` give with that replicate's Generator, ``size`` replicates a batch."""
    for s in range(0, len(rngs), size):
        gens = rngs[s: s + size]
        networks = net.simulate(burn_in + n, seed=gens)
        yield from zip(networks, simulate_nar(spec, networks, innov, n=n, burn_in=burn_in,
                                              seed=gens))
