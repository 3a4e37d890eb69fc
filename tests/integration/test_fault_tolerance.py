"""Fault-tolerance integration: Raft failover.

Gateway retries over a lossy fabric are covered in
``tests/integration/test_failures.py``.
"""

from repro.net import Network
from repro.raft import EtcdClient, EtcdCluster
from repro.sim import Environment, RngRegistry


def test_raft_leader_crash_reelection_and_convergence():
    """Crash the leader mid-workload: a new leader takes over, writes
    keep succeeding, and the recovered node converges on the full log."""
    env = Environment()
    rng = RngRegistry(seed=23)
    network = Network(env)
    cluster = EtcdCluster(env, network, n_nodes=5, rng=rng)
    client = EtcdClient(env, network.add_node("client"), cluster.names)
    observed = {}

    def scenario(env):
        leader = yield cluster.wait_for_leader()
        observed["first_leader"] = leader.name
        observed["first_term"] = leader.current_term

        for index in range(3):
            yield client.set(f"/k{index}", f"v{index}")

        leader.crash()
        new_leader = yield cluster.wait_for_leader()
        observed["second_leader"] = new_leader.name
        observed["second_term"] = new_leader.current_term

        # Committed state survived; the cluster still accepts writes.
        value = yield client.get("/k1")
        assert value == "v1"
        for index in range(3, 6):
            yield client.set(f"/k{index}", f"v{index}")

        cluster.recover(leader.name)
        yield env.timeout(3.0)  # heartbeats replay the missed entries

    process = env.process(scenario(env))
    env.run(until=process)

    assert observed["second_leader"] != observed["first_leader"]
    assert observed["second_term"] > observed["first_term"]
    expected = {f"/k{i}": f"v{i}" for i in range(6)}
    # Every store (including the recovered ex-leader's) converged.
    for name in cluster.names:
        data = cluster.stores[name].data
        assert expected.items() <= data.items(), f"{name} diverged"
