"""Self-tests of the benchmark's own machinery.

Usage: ``python3 perfbench/selftest.py`` from the root of a checkout.
Checks, on a small 3-qubit cost-5 store:

* the request generator is a pure function of its seed: the same seed
  writes a byte-identical stream, another seed a different one;
* the oracle accepts every served answer and refuses each of them
  with one gate id changed, or with a wrong claimed level, and its
  unitaries equal ``circuit_unitary_numpy`` of the served circuits;
* ``server.pool_hop_us`` and ``router.hop_us`` pair each request with
  itself on both of their paths, by the target each reply names: the
  live probes pair cleanly, and a shuffled pairing is refused.

Exits 0 and prints ``selftest ok`` when every check holds.
"""

from __future__ import annotations

import sys

import common


def main() -> int:
    common.require_checkout()
    common.prepare_workdirs()

    import numpy as np

    from repro.core.batch import BatchSynthesizer
    from repro.core.circuit import Circuit
    from repro.core.search import CascadeSearch
    from repro.gates.library import GateLibrary
    from repro.io import parse_target, result_to_dict, save_search
    from repro.sim.statevector import circuit_unitary_numpy

    import layers
    from common import WORK, Tracer
    from serve import Service
    from workload import (circuit_unitary, corrupt, oracle, target_pools,
                          write_stream)

    library = GateLibrary(3)
    search = CascadeSearch(library, track_parents=True)
    search.extend_to(5)
    store = str(WORK / "run" / "selftest.rpro")
    save_search(search, store)
    pools = target_pools(store)
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    shapes = [(0.25, 300), (1.0, 20)]
    paths = [WORK / "run" / f"stream{i}.ndjson" for i in range(3)]
    write_stream(paths[0], pools, 7, shapes)
    write_stream(paths[1], pools, 7, shapes)
    write_stream(paths[2], pools, 8, shapes)
    expect(paths[0].read_bytes() == paths[1].read_bytes(),
           "same seed, byte-identical stream")
    expect(paths[0].read_bytes() != paths[2].read_bytes(),
           "different seed, different stream")

    batch = BatchSynthesizer(search)
    names = [gate.name for gate in library.gates]
    accepted = refused = same_unitary = 0
    for level, pool in enumerate(pools):
        for spec in pool[:: max(1, len(pool) // 25)]:
            record = result_to_dict(batch.synthesize(parse_target(spec)))
            same_unitary += np.array_equal(
                circuit_unitary(record["gates"], 3),
                circuit_unitary_numpy(Circuit.from_names(record["gates"], 3)))
            accepted += oracle(3, spec, level, record)
            refused += not oracle(3, spec, level + 1, record)
            if level:
                refused += not any(
                    oracle(3, spec, level, corrupt(record, names, i))
                    for i in range(level)
                )
    checked = sum(len(pool[:: max(1, len(pool) // 25)]) for pool in pools)
    expect(same_unitary == checked,
           "oracle unitaries equal circuit_unitary_numpy")
    expect(accepted == checked, f"oracle accepts {checked} served answers")
    expect(refused == 2 * checked - len(pools[0]),
           "oracle refuses every corrupted gate id and wrong level")

    singles = [pool[0] for pool in pools[1:]] * 4
    tracer = Tracer(True)
    _metrics, executed = layers.in_process(store, singles, [singles], tracer)
    expect([target for target, _s in executed] == singles,
           "in-process replies name the requested targets")
    fleet = Service(store, True, "selftest-fleet")
    try:
        fleet.wait_first_synth(singles[0])
        endpoint = fleet.direct_endpoints()[0]
        try:
            layers.direct_rtts(endpoint, singles, executed, tracer)
            layers.router_hop(fleet, singles, tracer)
            live_paired = True
        except ValueError:
            live_paired = False
    finally:
        fleet.stop()
    expect(live_paired, "pool and router hops pair the replies of both paths")
    # The same targets with one pass rotated by one request: every pair
    # now joins the replies for two different targets.
    try:
        layers.paired(executed, executed[1:] + executed[:1])
        shuffled_paired = True
    except ValueError:
        shuffled_paired = False
    expect(not shuffled_paired, "a shuffled pairing is refused")
    print("selftest ok" if not failures else f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
