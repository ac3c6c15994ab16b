"""Reference Equation (1): one ``net_cost`` call per net, nets in id order."""

from repro.htp.cost import net_cost


def total_cost(hypergraph, partition, spec):
    """``sum_e cost(e)`` evaluated through the per-net definition."""
    return sum(
        net_cost(hypergraph, partition, spec, net_id)
        for net_id in range(hypergraph.num_nets)
    )
