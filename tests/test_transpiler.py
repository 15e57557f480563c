"""Mapping, routing, scheduling, peephole, and the full pipeline."""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from qflow.circuit import Circuit, Instruction, Register
from qflow.device import Topology, load_device
from qflow.decompose import decompose_to_u_cx, resolve_1q_family
from qflow.errors import QFlowError, TranspileError
from qflow.gates import LIBRARY, BasisSet
from qflow.metrics import MetricsReport, analyze, circuit_depth
from qflow import layout as layout_module
from qflow.layout import Layout, initial_mapping
from qflow.parser import parse_qasm
from qflow.printer import print_qasm
from qflow.routing import route
from qflow.schedule import schedule_asap
from qflow.transpile import _merge_swaps, transpile

from conftest import ghz_qasm, noiseless_device_json, random_general_qasm
from oracles import check_transpiled, circuit_unitary, peephole_1q, phase_distance


def _decomposed(circ):
    out = []
    for instr in circ.instructions:
        if instr.opcode in LIBRARY:
            out.extend(decompose_to_u_cx(instr))
        else:
            out.append(instr)
    return circ.with_instructions(out)


@st.composite
def _connected_case(draw):
    """A connected topology (random spanning tree plus random extra edges,
    n <= 7) and cx gates (control, offset to target) on k <= n qubits."""
    n = draw(st.integers(2, 7))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges += draw(st.lists(st.sampled_from(pairs), max_size=n))
    k = draw(st.integers(2, n))
    gates = draw(st.lists(st.tuples(st.integers(0, k - 1), st.integers(1, k - 1)), max_size=40))
    return n, edges, k, gates


class TestInitialMapping:
    def test_no_two_qubit_gates_identity(self):
        c = _decomposed(parse_qasm("OPENQASM 2.0; qreg q[3]; h q[0]; h q[2];"))
        topo = Topology.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        layout = initial_mapping(c, topo)
        assert layout.logical_to_physical[:3] == (0, 1, 2)

    def test_star_interaction_on_star_topology(self):
        src = "OPENQASM 2.0; qreg q[5];" + "".join(
            f" cx q[0],q[{k}];" for k in range(1, 5)
        )
        c = _decomposed(parse_qasm(src))
        topo = Topology.from_edges(5, [(2, 0), (2, 1), (2, 3), (2, 4)])  # hub = 2
        layout = initial_mapping(c, topo)
        assert layout.logical_to_physical[0] == 2
        # spokes land adjacent to the hub
        for logical in range(1, 5):
            assert topo.dist[layout.logical_to_physical[logical]][2] == 1

    def test_injective(self, corpus, devices):
        topo = devices["grid9"].topology()
        for name, circ in corpus:
            if circ.n_qubits > 9:
                continue
            layout = initial_mapping(_decomposed(circ), topo)
            used = layout.logical_to_physical[: layout.n_logical]
            assert len(set(used)) == len(used), name

    def test_too_many_qubits(self):
        c = _decomposed(parse_qasm("OPENQASM 2.0; qreg q[3]; h q[0];"))
        with pytest.raises(TranspileError):
            initial_mapping(c, Topology.from_edges(2, [(0, 1)]))


class TestSwapFreeLayout:
    """When the greedy placement leaves an interacting pair uncoupled, a
    subgraph search looks for a placement that needs no swap."""

    @given(case=_connected_case(), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_a_circuit_that_fits_the_topology_routes_without_swaps(self, case, data):
        n, edges, _, _ = case
        relabel = data.draw(st.permutations(range(n)))
        gates = data.draw(st.lists(st.tuples(st.sampled_from(edges), st.booleans()),
                                   min_size=1, max_size=12))
        src = f"OPENQASM 2.0; qreg q[{n}];"
        for (a, b), flip in gates:
            c, t = (relabel[b], relabel[a]) if flip else (relabel[a], relabel[b])
            src += f" h q[{c}]; cx q[{c}],q[{t}];"
        circ = parse_qasm(src)
        dev = load_device(noiseless_device_json(n, edges=sorted(set(edges))))
        for opt_level in (0, 1):
            phys, report = transpile(circ, dev, opt_level=opt_level)
            assert report.n_swap == 0
            check_transpiled(circ, phys, report, dev)

    def test_ghz5_on_line5_needs_no_swap(self, devices):
        # the greedy placement (3, 1, 0, 2, 4) cost it 3 swaps
        phys, report = transpile(parse_qasm(ghz_qasm(5)), devices["line5"])
        assert (report.layout_initial, report.n_swap, report.n_2q) == ((0, 1, 2, 3, 4), 0, 4)
        check_transpiled(parse_qasm(ghz_qasm(5)), phys, report, devices["line5"])

    def test_the_search_stops_at_its_cap(self, devices, monkeypatch):
        """ghz5 on line5 takes 5 placements. With a cap of 4 the first search
        spends the whole budget, so no prefix is searched and the greedy
        placement stands."""
        monkeypatch.setattr(layout_module, "SEARCH_CAP", 4)
        _, report = transpile(parse_qasm(ghz_qasm(5)), devices["line5"])
        assert (report.layout_initial, report.n_swap) == ((3, 1, 0, 2, 4), 3)

    @pytest.mark.parametrize("k, placed", [
        (5, (3, 0, 1, 2, 5, -1, -1, -1, -1)),
        (7, (3, 0, 1, 2, 5, 4, 7, -1, -1)),
        (9, (2, 1, 0, 3, 4, 5, 8, 7, 6)),
    ])
    def test_an_odd_cycle_on_grid9_places_its_longest_path_swap_free(self, devices, k, placed):
        """Every degree of an odd cycle fits grid9, but grid9 is bipartite,
        so no odd cycle embeds. The search of the whole cycle ends unaided,
        well below the cap: after 157, 389 and 613 placements for k = 5, 7
        and 9, the last in about 1.5 ms on a 2-vCPU Xeon VM. The longest
        prefix that embeds is the path of the first k - 1 gates, so only
        the closing pair is left uncoupled."""
        cycle = parse_qasm(f"OPENQASM 2.0; qreg q[{k}];"
                           + "".join(f" cx q[{i}],q[{(i + 1) % k}];" for i in range(k)))
        topo = devices["grid9"].topology()
        layout = initial_mapping(_decomposed(cycle), topo)
        assert layout == Layout(placed, k)
        assert all(topo.dist[placed[i]][placed[i + 1]] == 1 for i in range(k - 1))

    @pytest.mark.parametrize("n, layout, n_swap, n_2q", [
        (6, (0, 1, 3, 5, 4, 6, -1), 1, 6),  # the greedy placement: 3 swaps, 14 two-qubit gates
        (7, (0, 1, 3, 5, 4, 6, 2), 3, 15),  # and 5 swaps, 21 two-qubit gates
    ])
    def test_a_ghz_chain_too_long_for_heavyhex7_places_its_longest_prefix(
            self, devices, n, layout, n_swap, n_2q):
        """A chain of more than five qubits fails heavyhex7's degree check;
        the first four gates of ghz6 and ghz7 embed."""
        circuit = parse_qasm(ghz_qasm(n))
        phys, report = transpile(circuit, devices["heavyhex7"])
        assert (report.layout_initial, report.n_swap, report.n_2q) == (layout, n_swap, n_2q)
        check_transpiled(circuit, phys, report, devices["heavyhex7"])

    @given(case=_connected_case(), data=st.data())
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    def test_the_longest_prefix_that_embeds_is_placed_swap_free(self, case, data):
        """Found by trying every placement: when the first j gates embed but
        not all of them, the initial layout couples every pair among the
        first j. At least n gates on all n qubits, so that most graphs do
        not embed."""
        n, edges, _, _ = case
        pairs = [(a, (a + d) % n) for a, d in data.draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(1, n - 1)), min_size=n, max_size=40))]
        topo = Topology.from_edges(n, edges)
        longest = max(next((j for j, (a, b) in enumerate(pairs) if topo.dist[p[a]][p[b]] != 1),
                           len(pairs))
                      for p in itertools.permutations(range(n)))
        assume(longest < len(pairs))
        circ = parse_qasm(f"OPENQASM 2.0; qreg q[{n}];"
                          + "".join(f" cx q[{a}],q[{b}];" for a, b in pairs))
        placed = initial_mapping(_decomposed(circ), topo).logical_to_physical
        assert all(topo.dist[placed[a]][placed[b]] == 1 for a, b in pairs[:longest])
        dev = load_device(noiseless_device_json(n, edges=sorted(set(edges))))
        for opt_level in (0, 1):
            phys, report = transpile(circ, dev, opt_level=opt_level)
            check_transpiled(circ, phys, report, dev)

    def test_the_search_tries_the_component_with_most_edges_first(self, devices):
        """The triangle {5, 6, 8} cannot embed in bipartite grid9. Searched
        after the paths 0-3-7 and 1-2-4, as their order once had it, it cost
        4069 placements; searched first, 9 for its first qubit and 24 for
        its second."""
        partners = layout_module._partners(
            9, [(0, 3), (3, 7), (1, 2), (2, 4), (5, 6), (6, 8), (5, 8)])
        found, left = layout_module._embedding(partners, devices["grid9"].topology(), 50)
        assert (found, 50 - left) == (None, 33)

    @pytest.mark.parametrize("cap", [100, 620, 700, layout_module.SEARCH_CAP])
    @pytest.mark.parametrize("case", ["9-cycle on grid9", "path and triangle on a 5x5 grid"])
    def test_one_transpile_searches_at_most_the_cap_in_all(self, devices, monkeypatch, cap, case):
        """The search of the 9-cycle ends unaided after 613 placements and
        those of its prefixes take 5, 7, 9 and 81 more, 715 in all; a
        20-qubit path with a triangle beside it runs any cap out on a 5x5
        grid. Each search is counted by what it leaves of its budget."""
        if case == "9-cycle on grid9":
            n, dev, unaided = 9, devices["grid9"], 715
            pairs = [(i, (i + 1) % 9) for i in range(9)]
        else:
            grid = [(r * 5 + c, r * 5 + c + 1) for r in range(5) for c in range(4)]
            grid += [(r * 5 + c, r * 5 + c + 5) for r in range(4) for c in range(5)]
            n, dev, unaided = 23, load_device(noiseless_device_json(25, edges=grid)), math.inf
            pairs = [(i, i + 1) for i in range(19)] + [(20, 21), (21, 22), (22, 20)]
        spent = []
        search = layout_module._embedding

        def counted(partners, topology, budget):
            found, left = search(partners, topology, budget)
            spent.append(budget - left)
            return found, left

        monkeypatch.setattr(layout_module, "SEARCH_CAP", cap)
        monkeypatch.setattr(layout_module, "_embedding", counted)
        transpile(parse_qasm(f"OPENQASM 2.0; qreg q[{n}];"
                             + "".join(f" cx q[{a}],q[{b}];" for a, b in pairs)), dev)
        assert sum(spent) == min(cap, unaided) <= cap


class TestRoute:
    def _line3(self):
        return Topology.from_edges(3, [(0, 1), (1, 2)])

    def test_compliant_circuit_unchanged(self):
        c = _decomposed(parse_qasm("OPENQASM 2.0; qreg q[3]; cx q[0],q[1]; cx q[1],q[2];"))
        layout = Layout((0, 1, 2), 3)
        routed, final = route(c, layout, self._line3())
        assert sum(1 for i in routed.instructions if i.opcode == "swap") == 0
        assert final.logical_to_physical == (0, 1, 2)
        assert [i.opcode for i in routed.instructions] == ["cx", "cx"]

    def test_distant_cx_inserts_one_swap(self):
        c = _decomposed(parse_qasm("OPENQASM 2.0; qreg q[3]; cx q[0],q[2];"))
        routed, final = route(c, Layout((0, 1, 2), 3), self._line3())
        ops = [i.opcode for i in routed.instructions]
        assert ops.count("swap") == 1
        assert ops.count("cx") == 1

    def test_measure_remapped_to_final_position(self):
        c = _decomposed(
            parse_qasm(
                "OPENQASM 2.0; qreg q[3]; creg c[1]; cx q[0],q[2]; measure q[0] -> c[0];"
            )
        )
        routed, final = route(c, Layout((0, 1, 2), 3), self._line3())
        measure = [i for i in routed.instructions if i.opcode == "measure"][0]
        assert measure.qubits[0][1] == final.logical_to_physical[0]
        assert measure.clbits == (("c", 0),)

    def test_physical_register_avoids_a_classical_register_named_q(self):
        c = _decomposed(parse_qasm("OPENQASM 2.0; qreg r[2]; creg q[1]; creg _q[1]; "
                                   "cx r[0],r[1]; measure r[1] -> q[0];"))
        routed, _ = route(c, Layout((0, 1, 2), 2), self._line3())
        assert [(r.name, r.kind) for r in routed.registers] == [
            ("__q", "q"), ("q", "c"), ("_q", "c")]
        assert routed.instructions[-1].qubits == (("__q", 1),)

    def test_classical_order_preserved(self):
        src = (
            "OPENQASM 2.0; qreg q[2]; creg c[1]; "
            "h q[0]; measure q[0] -> c[0]; if(c==1) x q[1];"
        )
        c = _decomposed(parse_qasm(src))
        routed, _ = route(c, Layout((0, 1), 2), Topology.from_edges(2, [(0, 1)]))
        kinds = [
            ("measure" if i.opcode == "measure" else "cond" if i.condition else "gate")
            for i in routed.instructions
        ]
        assert kinds.index("measure") < kinds.index("cond")

    def test_random_circuits_compliant_and_sound(self, devices):
        topo = devices["heavyhex7"].topology()
        for seed in range(50):
            circ = parse_qasm(random_general_qasm(6, 18, seed=3000 + seed))
            dec = _decomposed(circ)
            layout = initial_mapping(dec, topo)
            routed, final = route(dec, layout, topo)
            # compliance at the u3/cx/swap level
            for instr in routed.instructions:
                spec = LIBRARY.get(instr.opcode)
                if spec is not None and spec.arity == 2:
                    a, b = instr.qubits[0][1], instr.qubits[1][1]
                    assert topo.dist[a][b] == 1, (seed, instr)
            # unitary equivalence through the layout embedding
            u_in = circuit_unitary(circ)
            u_out = circuit_unitary(routed)
            k = dec.n_qubits
            li = layout.logical_to_physical[:k]
            lf = final.logical_to_physical[:k]

            def emb(x, lay):
                y = 0
                for i in range(k):
                    if (x >> i) & 1:
                        y |= 1 << lay[i]
                return y

            rows = [emb(y, lf) for y in range(1 << k)]
            m = np.zeros((1 << k, 1 << k), complex)
            for x in range(1 << k):
                m[:, x] = u_out[rows, emb(x, li)]
            assert phase_distance(u_in, m) < 1e-8, seed

    @pytest.mark.parametrize(
        "device, seed, depth",
        [("line5", 11, 200), ("line5", 13, 60), ("line5", 13, 200), ("line5", 22, 200),
         ("line5", 27, 60), ("line5", 27, 200), ("line5", 37, 200), ("heavyhex7", 24, 200)],
    )
    def test_formerly_stuck_circuits_route(self, devices, device, seed, depth):
        # the revisit-table router raised RoutingError on each of these
        circ = parse_qasm(random_general_qasm(5, depth, seed))
        phys, report = transpile(circ, devices[device])
        check_transpiled(circ, phys, report, devices[device])

    @given(case=_connected_case())
    @example(case=(5, [(0, 1), (0, 2), (1, 4), (2, 3)], 5,
                   [(3, 2), (4, 1), (4, 4), (2, 2), (1, 2), (4, 3), (0, 3), (4, 2), (3, 2),
                    (2, 2), (2, 4), (3, 2), (3, 4), (1, 4), (0, 1)]))  # stuck the old router
    @settings(max_examples=40, deadline=None)
    def test_routes_on_any_connected_topology(self, case):
        n, edges, k, gates = case
        topo = Topology.from_edges(n, edges)
        src = f"OPENQASM 2.0; qreg q[{k}];" + "".join(
            f" cx q[{a}],q[{(a + d) % k}];" for a, d in gates
        )
        dec = _decomposed(parse_qasm(src))
        routed, _ = route(dec, initial_mapping(dec, topo), topo)
        assert sum(i.opcode == "cx" for i in routed.instructions) == len(gates)
        for instr in routed.instructions:
            if len(instr.qubits) == 2:
                assert topo.dist[instr.qubits[0][1]][instr.qubits[1][1]] == 1, instr

    def test_disconnected_topology_fails(self):
        c = _decomposed(parse_qasm("OPENQASM 2.0; qreg q[2]; cx q[0],q[1];"))
        topo = Topology.from_edges(2, [])
        with pytest.raises(TranspileError, match="disconnected"):
            route(c, Layout((0, 1), 2), topo)


class TestSchedule:
    DEV = json.dumps(
        {
            "name": "sched",
            "num_qubits": 3,
            "basis_gates": ["rz", "sx", "x", "cx"],
            "coupling_map": [[0, 1], [1, 0], [1, 2], [2, 1]],
            "gate_durations_ns": {"rz": 0.0, "sx": 35.0, "x": 35.0, "cx": 300.0},
            "cycle_time_ns": 2.0,
        }
    )

    def test_sequential_sum(self):
        dev = load_device(self.DEV)
        c = parse_qasm("OPENQASM 2.0; qreg q[1]; sx q[0]; x q[0]; sx q[0];")
        sched = schedule_asap(c, dev)
        assert sched.makespan_ns == 105.0
        assert [e[0] for e in sched.entries] == [0.0, 35.0, 70.0]

    def test_disjoint_qubits_parallel(self):
        dev = load_device(self.DEV)
        c = parse_qasm("OPENQASM 2.0; qreg q[2]; x q[0]; x q[1];")
        sched = schedule_asap(c, dev)
        assert sched.entries[0][0] == 0.0 and sched.entries[1][0] == 0.0
        assert sched.makespan_ns == 35.0

    def test_delay_occupies_cycles_times_cycle_time(self):
        dev = load_device(self.DEV)
        c = parse_qasm("OPENQASM 2.0; qreg q[1]; delay q[0], 100; x q[0];")
        sched = schedule_asap(c, dev)
        assert sched.entries[0][1] == 200.0
        assert sched.entries[1][0] == 200.0

    def test_barrier_synchronizes(self):
        dev = load_device(self.DEV)
        c = parse_qasm(
            "OPENQASM 2.0; qreg q[2]; x q[0]; barrier q[0],q[1]; x q[1];"
        )
        sched = schedule_asap(c, dev)
        assert sched.entries[2][0] == 35.0  # x q[1] waits for the barrier

    def test_missing_duration(self):
        dev = load_device(self.DEV)
        c = parse_qasm("OPENQASM 2.0; qreg q[1]; h q[0];")
        from qflow.errors import DeviceConfigError

        with pytest.raises(DeviceConfigError, match="no duration entry"):
            schedule_asap(c, dev)


class TestPeephole:
    """The peephole oracle, against which the opt-1 fold is checked."""

    def test_rz_merge(self):
        c = parse_qasm("OPENQASM 2.0; qreg q[1]; rz(0.3) q[0]; rz(0.4) q[0];")
        out = peephole_1q(c, "zsx")
        assert [i.opcode for i in out.instructions] == ["rz"]
        assert out.instructions[0].params[0] == pytest.approx(0.7, abs=1e-12)

    def test_double_x_cancels(self):
        c = parse_qasm("OPENQASM 2.0; qreg q[1]; x q[0]; x q[0];")
        assert peephole_1q(c, "zsx").instructions == ()

    def test_random_strings_collapse(self):
        rng = np.random.default_rng(8)
        names = ["h", "s", "sdg", "x", "z", "t", "tdg", "sx", "rz", "rx", "ry"]
        for trial in range(60):
            lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', "qreg q[1];"]
            for _ in range(10):
                g = names[int(rng.integers(len(names)))]
                if g in ("rz", "rx", "ry"):
                    lines.append(f"{g}({rng.uniform(-3, 3)}) q[0];")
                else:
                    lines.append(f"{g} q[0];")
            c = parse_qasm("\n".join(lines))
            family = ("zsx", "zxz", "zyz", "u3")[trial % 4]
            out = peephole_1q(c, family)
            assert len(out.instructions) <= 5
            d = phase_distance(circuit_unitary(c), circuit_unitary(out))
            assert d < 1e-9, (trial, d)

    def test_runs_interrupted_by_measure_and_condition(self):
        src = (
            "OPENQASM 2.0; qreg q[1]; creg c[1]; "
            "x q[0]; measure q[0] -> c[0]; if(c==1) x q[0]; x q[0];"
        )
        out = peephole_1q(parse_qasm(src), "zsx")
        ops = [(i.opcode, i.condition) for i in out.instructions]
        assert ops == [("x", None), ("measure", None), ("x", ("c", 1)), ("x", None)]


class TestTranspile:
    def test_bell_on_line5(self, bell, devices):
        phys, report = transpile(bell, devices["line5"])
        assert report.n_swap == 0
        check_transpiled(bell, phys, report, devices["line5"])
        allowed = set(devices["line5"].basis_gates)
        for instr in phys.instructions:
            if instr.opcode in LIBRARY:
                assert instr.opcode in allowed

    def test_far_cx_needs_swap_equivalent(self):
        dev = load_device(noiseless_device_json(
            3, edges=[[0, 1], [1, 0], [1, 2], [2, 1]]
        ))
        c = parse_qasm("OPENQASM 2.0; qreg q[3]; cx q[0],q[2]; cx q[0],q[1]; cx q[1],q[2];")
        phys, report = transpile(c, dev)
        check_transpiled(c, phys, report, dev)

    def test_conditioned_macro_with_a_barrier_reads_back(self, devices):
        c = parse_qasm(
            "OPENQASM 2.0; qreg q[2]; creg c[1]; gate g a,b { h a; barrier a,b; cx a,b; }"
            " measure q[0] -> c[0]; if(c==1) g q[0],q[1];"
        )
        for name, dev in devices.items():
            phys, report = transpile(c, dev)
            again = parse_qasm(print_qasm(phys))
            assert again == phys, name
            check_transpiled(c, again, report, dev)

    def test_single_qubit_circuit(self, devices):
        c = parse_qasm("OPENQASM 2.0; qreg q[1]; h q[0];")
        for dev in devices.values():
            phys, report = transpile(c, dev)
            assert report.n_swap == 0
            check_transpiled(c, phys, report, dev)

    def test_deterministic_output(self, devices):
        c = parse_qasm(random_general_qasm(5, 30, seed=77))
        a1, r1 = transpile(c, devices["heavyhex7"], seed=11)
        a2, r2 = transpile(c, devices["heavyhex7"], seed=11)
        assert print_qasm(a1) == print_qasm(a2)
        assert r1 == r2

    def test_monotone_opt_levels(self, corpus, devices):
        for name, circ in corpus:
            if circ.n_qubits > 7:
                continue
            _, r0 = transpile(circ, devices["heavyhex7"], opt_level=0)
            _, r1 = transpile(circ, devices["heavyhex7"], opt_level=1)
            assert r1.n_1q <= r0.n_1q, name
            assert r1.n_2q <= r0.n_2q, name

    def test_report_counts_consistent(self, bell, devices):
        phys, report = transpile(bell, devices["grid9"])
        hist = {}
        for i in phys.instructions:
            if i.opcode != "barrier":
                hist[i.opcode] = hist.get(i.opcode, 0) + 1
        assert hist == report.basis_histogram
        from qflow.metrics import circuit_depth

        assert report.depth_out == circuit_depth(phys)

    def test_analyze_counts_as_the_report_does(self, devices):
        """Barriers are left out of the histogram and the gate counts; a
        circuit of no instructions has zero depth and density."""
        c = parse_qasm("OPENQASM 2.0; qreg q[2]; creg c[1]; h q[0]; barrier q; cx q[0],q[1]; "
                       "barrier q[0]; measure q[1] -> c[0];")
        report = analyze(c)
        assert report.basis_histogram == {"h": 1, "cx": 1, "measure": 1}
        assert (report.n_gates, report.n_1q, report.n_2q, report.n_measure, report.depth) == (
            3, 1, 1, 1, 3)
        phys, treport = transpile(c, devices["line5"], opt_level=0)
        report = analyze(phys)
        assert (report.basis_histogram, report.n_1q, report.n_2q) == (
            treport.basis_histogram, treport.n_1q, treport.n_2q)
        assert analyze(c.with_instructions(())) == MetricsReport(2, 0, 0, 0, 0, 0, 0.0, 0.0, 0.0,
                                                                 0.0, {})
        assert analyze(Circuit()) == MetricsReport(0, 0, 0, 0, 0, 0, 0.0, 0.0, 0.0, 0.0, {})

    def test_conditions_survive(self, devices):
        src = (
            "OPENQASM 2.0; qreg q[2]; creg c[1]; h q[0]; measure q[0] -> c[0]; "
            "if(c==1) x q[1];"
        )
        phys, _ = transpile(parse_qasm(src), devices["line5"])
        conded = [i for i in phys.instructions if i.condition is not None]
        assert conded and all(i.condition == ("c", 1) for i in conded)

    def test_too_many_qubits(self, devices):
        c = parse_qasm("OPENQASM 2.0; qreg q[9]; h q[0];")
        with pytest.raises(TranspileError, match="too many qubits"):
            transpile(c, devices["heavyhex7"])

    def test_unsupported_opt_level(self, bell, devices):
        with pytest.raises(TranspileError, match="unsupported opt_level 2"):
            transpile(bell, devices["line5"], opt_level=2)

    def test_delay_passes_through(self, devices):
        c = parse_qasm("OPENQASM 2.0; qreg q[1]; x q[0]; delay q[0], 64; x q[0];")
        phys, report = transpile(c, devices["line5"])
        delays = [i for i in phys.instructions if i.opcode == "delay"]
        assert len(delays) == 1 and delays[0].params == (64,)
        # delay contributes cycles * cycle_time to the makespan
        assert report.makespan_ns >= 64 * devices["line5"].cycle_time_ns

    def test_makespan_matches_schedule(self, bell, devices):
        phys, report = transpile(bell, devices["line5"])
        assert report.makespan_ns == schedule_asap(phys, devices["line5"]).makespan_ns


def _ops(*ops) -> Circuit:
    """A routed circuit on q[3] and c[1] from (opcode, wires, condition) triples."""
    return Circuit((Register("q", "q", 3), Register("c", "c", 1)), tuple(
        Instruction(op, (0.1, 0.2, 0.3) if op == "u3" else (), tuple(("q", w) for w in ws),
                    (("c", 0),) if op == "measure" else (), cond) for op, ws, cond in ops))


class TestSwapMerge:
    """A swap whose wires last met in a cx, with only u3s since, merges
    into it: cx(c,t); u3s; swap(c,t) = cx(t,c); cx(c,t); the u3s on the
    other wire."""

    @pytest.mark.parametrize("opt_level", [0, 1])
    def test_a_swap_after_a_cx_on_its_pair_costs_one_cx_more(self, opt_level):
        # routed: cx(1,2) cx(1,0) u3(1) u3(0) swap(0,1) cx(1,2)
        dev = load_device(noiseless_device_json(3, edges=[[0, 1], [1, 0], [1, 2], [2, 1]]))
        circ = parse_qasm('OPENQASM 2.0; include "qelib1.inc"; qreg q[3]; cx q[0],q[2]; '
                          "cx q[0],q[1]; h q[0]; t q[1]; cx q[1],q[2];")
        phys, report = transpile(circ, dev, opt_level=opt_level)
        assert report.n_swap == 1
        assert report.n_2q == 3 + 3 * report.n_swap - 2
        check_transpiled(circ, phys, report, dev)

    def test_the_u3s_move_to_the_other_wire(self):
        routed = _ops(("cx", (0, 1), None), ("u3", (0,), None), ("u3", (2,), None),
                      ("u3", (1,), None), ("swap", (1, 0), None))
        assert _merge_swaps(routed) == _ops(
            ("cx", (1, 0), None), ("u3", (2,), None), ("cx", (0, 1), None),
            ("u3", (1,), None), ("u3", (0,), None))

    @pytest.mark.parametrize("between", [
        ("barrier", (0, 2), None), ("measure", (1,), None), ("reset", (0,), None),
        ("u3", (1,), ("c", 1)), ("cx", (1, 2), None), ("swap", (0, 2), None)])
    def test_anything_but_an_unconditioned_u3_between_keeps_the_swap(self, between):
        routed = _ops(("cx", (0, 1), None), between, ("swap", (0, 1), None))
        assert _merge_swaps(routed) == routed

    @pytest.mark.parametrize("cx, swap", [(("c", 1), None), (None, ("c", 1))])
    def test_a_conditioned_cx_or_swap_is_not_merged(self, cx, swap):
        routed = _ops(("cx", (0, 1), cx), ("swap", (0, 1), swap))
        assert _merge_swaps(routed) == routed


_DEVICES = ("line5", "heavyhex7", "grid9", "alltoall11")


def _counts(circuit):
    n_1q = sum(1 for i in circuit.instructions
               if i.opcode in LIBRARY and LIBRARY[i.opcode].arity == 1)
    n_2q = sum(1 for i in circuit.instructions
               if i.opcode in LIBRARY and LIBRARY[i.opcode].arity == 2)
    return n_1q, n_2q, circuit_depth(circuit)


class TestFoldedPeephole:
    """Opt level 1 merges one-qubit runs while it retargets; the result must
    match running the peephole pass over the opt-level-0 output."""

    @pytest.mark.parametrize("device", _DEVICES)
    @pytest.mark.parametrize("seed", [5, 6])
    def test_fold_matches_peephole_after_opt0(self, devices, device, seed):
        dev = devices[device]
        circ = parse_qasm(random_general_qasm(4, 24, seed))
        phys0, _ = transpile(circ, dev, opt_level=0)
        phys1, report1 = transpile(circ, dev, opt_level=1)
        family = resolve_1q_family(BasisSet.from_names(dev.basis_gates))
        assert _counts(phys1) == _counts(peephole_1q(phys0, family))
        assert (report1.n_1q, report1.n_2q, report1.depth_out) == _counts(phys1)
        check_transpiled(circ, phys1, report1, dev)

    def test_conditioned_gates_are_not_folded(self, devices):
        src = ("OPENQASM 2.0; qreg q[2]; creg c[1]; h q[0]; measure q[0] -> c[0]; "
               "if(c==1) u3(0.1,0.2,0.3) q[1]; if(c==1) cx q[1],q[0]; h q[1];")
        for device in _DEVICES:
            dev = devices[device]
            phys0, _ = transpile(parse_qasm(src), dev, opt_level=0)
            phys1, _ = transpile(parse_qasm(src), dev, opt_level=1)
            family = resolve_1q_family(BasisSet.from_names(dev.basis_gates))
            merged = peephole_1q(phys0, family)
            assert [(i.opcode, i.qubits, i.condition) for i in phys1.instructions] == \
                [(i.opcode, i.qubits, i.condition) for i in merged.instructions]


# A random circuit with a barrier on two wires, a delay and a register-wide
# barrier; (depth_out, makespan_ns, n_1q, n_2q) per device and opt level,
# recorded when the depth came from a second walk over the output.
_BARRIER_DELAY_PINS = {
    ("line5", 0): (123, 12585.0, 249, 27), ("line5", 1): (103, 12445.0, 165, 27),
    ("heavyhex7", 0): (85, 9778.0, 141, 21), ("heavyhex7", 1): (66, 9650.0, 92, 21),
    ("grid9", 0): (147, 9200.0, 285, 24), ("grid9", 1): (96, 8810.0, 184, 24),
    ("alltoall11", 0): (50, 3408000.0, 87, 15), ("alltoall11", 1): (41, 3384000.0, 57, 15),
}


def _barrier_delay_source() -> str:
    lines = random_general_qasm(4, 40, 321).replace(
        "qreg q[4];", "qreg q[4];\ncreg c[4];").splitlines()
    lines.insert(20, "barrier q[0],q[2];")
    lines.insert(30, "delay q[1], 24;")
    lines.insert(36, "barrier q;")
    lines.append("measure q -> c;")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("device, opt_level", sorted(_BARRIER_DELAY_PINS))
def test_report_depth_and_makespan_come_from_one_schedule(devices, device, opt_level):
    dev = devices[device]
    phys, report = transpile(parse_qasm(_barrier_delay_source()), dev, opt_level=opt_level)
    assert any(i.opcode == "delay" for i in phys.instructions)
    assert sum(i.opcode == "barrier" for i in phys.instructions) == 2
    sched = schedule_asap(phys, dev)
    assert report.depth_out == sched.depth == circuit_depth(phys)
    assert report.makespan_ns == sched.makespan_ns
    assert (report.depth_out, report.makespan_ns, report.n_1q, report.n_2q) == \
        _BARRIER_DELAY_PINS[device, opt_level]


# angles the rule accepts beyond those of ordinary circuits: ones that a
# smaller angle added to them would round away, and ones whose sums overflow
# a double
_HUGE_ANGLES = (1e12, 1e16, 6.02e23, -1e300, 1.7976931348623157e308, -1.7976931348623157e308,
                1.7e308, -1.7e308, 1e308)
_GATES = sorted(LIBRARY)


@st.composite
def _programs(draw):
    """A circuit over q[n] (n <= 3) and c[2] with gates, measures, resets,
    ifs, barriers and delays; a gate's angles are ordinary or huge."""
    n = draw(st.integers(1, 3))
    angle = st.floats(-7.0, 7.0) | st.sampled_from(_HUGE_ANGLES)
    condition = st.none() | st.tuples(st.just("c"), st.integers(0, 3))
    wire = st.integers(0, n - 1).map(lambda i: ("q", i))
    instrs = []
    for _ in range(draw(st.integers(1, 7))):
        kind = draw(st.sampled_from(["gate", "gate", "gate", "measure", "reset", "barrier",
                                     "delay"]))
        if kind == "gate":
            spec = LIBRARY[draw(st.sampled_from([g for g in _GATES if LIBRARY[g].arity <= n]))]
            qubits = draw(st.permutations(range(n)))[: spec.arity]
            instrs.append(Instruction(
                spec.name, tuple(draw(angle) for _ in range(spec.param_count)),
                tuple(("q", i) for i in qubits), (), draw(condition)))
        elif kind == "measure":
            instrs.append(Instruction("measure", (), (draw(wire),),
                                      (("c", draw(st.integers(0, 1))),), draw(condition)))
        elif kind == "reset":
            instrs.append(Instruction("reset", (), (draw(wire),), (), draw(condition)))
        elif kind == "barrier":
            qubits = draw(st.permutations(range(n)))[: draw(st.integers(1, n))]
            instrs.append(Instruction("barrier", (), tuple(("q", i) for i in qubits)))
        else:
            instrs.append(Instruction("delay", (draw(st.integers(0, 9)),), (draw(wire),), (),
                                      draw(condition)))
    registers = (Register("q", "q", n), Register("c", "c", 2))
    return Circuit(registers, tuple(instrs))


@given(circuit=_programs())
@settings(max_examples=100, deadline=None)
def test_every_circuit_the_rule_accepts_transpiles_onto_every_device(devices, circuit):
    """The output is compliant and sound, huge angles included, and the
    resolution the pipeline installs is the one ``resolve`` builds."""
    circuit.resolve()
    for name in _DEVICES:
        device = devices[name]
        for opt_level in (0, 1):
            try:
                phys, report = transpile(circuit, device, opt_level=opt_level)
            except QFlowError:
                continue
            assert phys.resolve() == Circuit(phys.registers, phys.instructions).resolve()
            check_transpiled(circuit, phys, report, device)


# angles past 2*pi whose sum with an ordinary angle rounds it away
_GRID_ANGLES = (1e16, -3e12, 6.02e23, -1e300)


@pytest.mark.parametrize("name", [g for g in _GATES if LIBRARY[g].param_count])
def test_every_gate_at_huge_angles_transpiles_soundly(devices, name):
    """Each parameter takes each huge angle in turn, the others ordinary
    ones, and then all take it together."""
    spec = LIBRARY[name]
    ordinary = (0.5, 0.3, 0.2)[: spec.param_count]
    grid = [ordinary[:k] + (a,) + ordinary[k + 1:] for k in range(spec.param_count)
            for a in _GRID_ANGLES] + [(a,) * spec.param_count for a in _GRID_ANGLES]
    wires = tuple(("q", i) for i in range(spec.arity))
    for params in dict.fromkeys(grid):
        circuit = Circuit((Register("q", "q", spec.arity),),
                          (Instruction(name, params, wires),))
        for device in devices.values():
            for opt_level in (0, 1):
                phys, report = transpile(circuit, device, opt_level=opt_level)
                check_transpiled(circuit, phys, report, device)


@pytest.mark.parametrize("opt_level", [0, 1])
def test_a_huge_u3_angle_transpiles_soundly_onto_line5(devices, opt_level):
    """Sums with phi = 1e300 (retarget_1q's phi + pi, u3_cells's p + l)
    once kept no digit of the smaller angle: |tr(U^dag V)|/2 read 0.995."""
    circuit = parse_qasm('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\n'
                         "u3(0.5,1e300,0.2) q[0];\ncx q[0],q[1];\n")
    phys, report = transpile(circuit, devices["line5"], opt_level=opt_level)
    check_transpiled(circuit, phys, report, devices["line5"])
