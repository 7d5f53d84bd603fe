"""Structural studies (one of the [Miller 84] analyses).

Who talks to whom: a weighted directed graph over the processes of a
computation, built from matched message pairs, plus fork edges (a
parent "creates" its child).  networkx supplies the graph algorithms;
it is imported here, where a graph is built, not with the package.
"""


class CommunicationGraph:
    """The process-interaction structure of a computation."""

    def __init__(self, trace, matcher=None):
        import networkx as nx

        self.trace = trace
        self.matcher = matcher or trace.matcher()
        self.graph = nx.DiGraph()
        for process in trace.processes():
            self.graph.add_node(process)
        # The fold already summed the pairs per process pair.
        traffic = self.matcher.fold.pair_traffic
        for (send, recv), (count, nbytes) in traffic.items():
            self.graph.add_edge(send.process, recv.process, messages=count,
                                bytes=nbytes, kind="message")
        for event in trace.by_type("fork"):
            child = (event.machine, event["newPid"])
            self.graph.add_node(child)
            if not self.graph.has_edge(event.process, child):
                self.graph.add_edge(
                    event.process, child, messages=0, bytes=0, kind="fork"
                )

    # ------------------------------------------------------------------

    def processes(self):
        return list(self.graph.nodes)

    def edges(self):
        return [
            (src, dst, data) for src, dst, data in self.graph.edges(data=True)
        ]

    def degree_of(self, process):
        return self.graph.degree(process)

    def hubs(self, n=3):
        """Most-connected processes (e.g. the master in master/worker)."""
        ranked = sorted(
            self.graph.nodes, key=lambda p: self.graph.degree(p), reverse=True
        )
        return ranked[:n]

    def is_connected(self):
        import networkx as nx

        if self.graph.number_of_nodes() == 0:
            return True
        return nx.is_weakly_connected(self.graph)

    def components(self):
        import networkx as nx

        return [sorted(c) for c in nx.weakly_connected_components(self.graph)]

    def shape(self):
        """A rough classification: "star", "ring", "pipeline", "pair",
        or "mesh" -- handy for tests of known workload topologies.

        Rings and pipelines are recognized from the *directed* edges
        (in/out degree at most 1 everywhere), since a 3-node path and a
        3-node star are the same undirected graph.
        """
        import networkx as nx

        undirected = self.graph.to_undirected()
        n = undirected.number_of_nodes()
        if n <= 1:
            return "single"
        if n == 2:
            return "pair"
        if nx.is_weakly_connected(self.graph):
            in_degrees = dict(self.graph.in_degree())
            out_degrees = dict(self.graph.out_degree())
            if all(d <= 1 for d in in_degrees.values()) and all(
                d <= 1 for d in out_degrees.values()
            ):
                if all(d == 1 for d in in_degrees.values()) and all(
                    d == 1 for d in out_degrees.values()
                ):
                    return "ring"
                return "pipeline"
        degrees = sorted(dict(undirected.degree()).values())
        if degrees[-1] == n - 1 and all(d == 1 for d in degrees[:-1]):
            return "star"
        return "mesh"

    def report(self):
        lines = ["Communication structure"]
        lines.append(
            "  {0} processes, {1} edges, shape: {2}".format(
                self.graph.number_of_nodes(),
                self.graph.number_of_edges(),
                self.shape(),
            )
        )
        for src, dst, data in sorted(self.graph.edges(data=True)):
            lines.append(
                "  {0} -> {1}: {2} messages, {3} bytes ({4})".format(
                    src, dst, data["messages"], data["bytes"], data["kind"]
                )
            )
        return "\n".join(lines)
