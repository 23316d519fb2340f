//! Property-based tests on the WSN substrate.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use sid_net::{EventScheduler, Network, NodeId, RadioModel, StaticCells, Topology};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The scheduler's ordering contract: popping drains events in time
    /// order and, among equal timestamps, in insertion order — for any
    /// insertion sequence drawn from a small set of times (so ties are
    /// frequent).
    #[test]
    fn scheduler_pops_time_ordered_and_fifo_within_ties(
        slots in prop::collection::vec(0u8..6, 1..64),
    ) {
        let mut q = EventScheduler::new();
        let mut inserted: Vec<(f64, usize)> = Vec::new();
        for (i, &slot) in slots.iter().enumerate() {
            let t = f64::from(slot) * 0.5;
            q.schedule(t, i);
            inserted.push((t, i));
        }
        // Expected order: stable sort by time — equal times keep
        // insertion order, which is exactly the documented contract.
        let mut expected = inserted;
        expected.sort_by(|a, b| a.0.total_cmp(&b.0));
        let popped: Vec<(f64, usize)> =
            std::iter::from_fn(|| q.pop_due(f64::INFINITY)).collect();
        prop_assert_eq!(popped, expected);
        prop_assert!(q.is_empty());
    }

    /// Two schedulers fed the same equal-timestamp events in different
    /// permutations each pop in *their own* insertion order — the order
    /// is a deterministic function of the insertion sequence, never of
    /// payload values or heap internals.
    #[test]
    fn equal_time_pops_track_insertion_order_for_any_permutation(
        ids in prop::collection::vec(0usize..1000, 2..32),
        rotation in 0usize..32,
    ) {
        let insert_all = |order: &[usize]| {
            let mut q = EventScheduler::new();
            for &id in order {
                q.schedule(7.0, id);
            }
            let mut out = Vec::new();
            while let Some((t, id)) = q.pop_due(7.0) {
                prop_assert_eq!(t.to_bits(), 7.0f64.to_bits());
                out.push(id);
            }
            Ok(out)
        };
        let rotated: Vec<usize> = {
            let k = rotation % ids.len();
            ids[k..].iter().chain(ids[..k].iter()).copied().collect()
        };
        prop_assert_eq!(insert_all(&ids)?, ids.clone());
        prop_assert_eq!(insert_all(&rotated)?, rotated);
    }

    /// A partial drain (`pop_due` with a finite `now`) never yields an
    /// event past the deadline, and what remains pops later in the same
    /// global order.
    #[test]
    fn partial_drains_respect_the_deadline(
        slots in prop::collection::vec(0u8..10, 1..48),
        cut in 0u8..10,
    ) {
        let mut q = EventScheduler::new();
        for (i, &slot) in slots.iter().enumerate() {
            q.schedule(f64::from(slot), i);
        }
        let deadline = f64::from(cut);
        let mut early = Vec::new();
        while let Some((t, _)) = q.pop_due(deadline) {
            prop_assert!(t <= deadline, "popped {t} past deadline {deadline}");
            early.push(t);
        }
        prop_assert!(q.next_time().is_none_or(|t| t > deadline));
        let mut late = Vec::new();
        while let Some((t, _)) = q.pop_due(f64::INFINITY) {
            prop_assert!(t > deadline);
            late.push(t);
        }
        let mut all: Vec<f64> = early.iter().chain(late.iter()).copied().collect();
        prop_assert_eq!(all.len(), slots.len());
        all.sort_by(f64::total_cmp);
        let mut expected: Vec<f64> = slots.iter().map(|&s| f64::from(s)).collect();
        expected.sort_by(f64::total_cmp);
        prop_assert_eq!(all, expected);
    }
}

proptest! {
    #[test]
    fn grid_hops_match_manhattan(
        rows in 1usize..8,
        cols in 1usize..8,
        src_r in 0usize..8,
        src_c in 0usize..8,
    ) {
        prop_assume!(src_r < rows && src_c < cols);
        // Orthogonal-only radio range: hops = Manhattan distance.
        let topo = Topology::grid(rows, cols, 25.0, 30.0);
        let src = topo.at_grid(src_r, src_c).unwrap();
        let hops = topo.hops_from(src);
        for id in topo.node_ids() {
            let r = topo.row_of(id).unwrap();
            let c = topo.col_of(id).unwrap();
            let manhattan = r.abs_diff(src_r) + c.abs_diff(src_c);
            prop_assert_eq!(hops[id.index()] as usize, manhattan);
        }
    }

    #[test]
    fn nodes_within_hops_is_monotone(k1 in 0u16..6, dk in 1u16..4) {
        let topo = Topology::grid(6, 6, 25.0, 30.0);
        let centre = topo.at_grid(3, 3).unwrap();
        let small = topo.nodes_within_hops(centre, k1);
        let large = topo.nodes_within_hops(centre, k1 + dk);
        prop_assert!(small.len() <= large.len());
        for n in &small {
            prop_assert!(large.contains(n));
        }
    }

    #[test]
    fn static_cells_partition_everything(
        rows in 1usize..7,
        cols in 1usize..7,
        cr in 1usize..4,
        cc in 1usize..4,
    ) {
        let topo = Topology::grid(rows, cols, 25.0, 30.0);
        let cells = StaticCells::partition(&topo, cr, cc);
        let mut seen = 0;
        for c in 0..cells.cell_count() {
            let members = cells.members(sid_net::CellId::from(c));
            seen += members.len();
            if !members.is_empty() {
                let head = cells.head_of(sid_net::CellId::from(c));
                prop_assert!(members.contains(&head));
            }
        }
        prop_assert_eq!(seen, topo.len());
    }

    #[test]
    fn reliable_flood_reaches_exactly_the_ball(
        seed in 0u64..1000,
        hops in 1u16..6,
    ) {
        let topo = Topology::grid(5, 5, 25.0, 30.0);
        let centre = topo.at_grid(2, 2).unwrap();
        let eligible = topo.nodes_within_hops(centre, hops).len() - 1;
        let mut net: Network<u8> = Network::new(topo, RadioModel::reliable());
        let mut rng = StdRng::seed_from_u64(seed);
        let reached = net.flood(centre, 0, 0.0, hops, &mut rng);
        prop_assert_eq!(reached, eligible);
        prop_assert_eq!(net.poll(f64::INFINITY).len(), eligible);
    }

    #[test]
    fn lossy_traffic_accounting_balances(seed in 0u64..500) {
        let topo = Topology::grid(4, 4, 25.0, 30.0);
        let mut net: Network<u8> = Network::new(topo, RadioModel::lossy_no_retry());
        let mut rng = StdRng::seed_from_u64(seed);
        for i in 0..16usize {
            net.broadcast(NodeId::from(i), 0, 0.0, &mut rng);
        }
        let delivered = net.poll(f64::INFINITY).len() as u64;
        let s = net.stats();
        prop_assert_eq!(s.transmissions, delivered + s.dropped);
        prop_assert_eq!(s.delivered, delivered);
    }

    #[test]
    fn route_latency_scales_with_hops(seed in 0u64..200) {
        let topo = Topology::grid(1, 9, 25.0, 30.0);
        let mut net: Network<u8> = Network::new(topo, RadioModel::reliable());
        let mut rng = StdRng::seed_from_u64(seed);
        prop_assert!(net.route(NodeId::new(0), NodeId::new(8), 0, 0.0, &mut rng));
        let out = net.poll(f64::INFINITY);
        prop_assert_eq!(out.len(), 1);
        prop_assert!((out[0].0 - 8.0 * 0.005).abs() < 1e-12);
    }
}
