//! Property-based tests for the compute control plane.

use std::sync::Arc;

use proptest::prelude::*;

use cloud_compute::{
    transfer, BillingLedger, Ec2, PurchaseModel, ServiceKind, SpotRequestOutcome,
    TerminationReason, CROWDING_COEFFICIENT, CROWDING_FLEET_SCALE,
};
use cloud_market::{InstanceType, MarketConfig, Region, SpotMarket, Usd};
use sim_kernel::{SimDuration, SimRng, SimTime};

fn any_region() -> impl Strategy<Value = Region> {
    (0usize..12).prop_map(|i| Region::ALL[i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Transfer pricing is symmetric, zero on the diagonal, and linear in
    /// size; transfer time is positive for positive sizes.
    #[test]
    fn transfer_tariff_properties(
        from in any_region(),
        to in any_region(),
        gib in 0.0f64..500.0,
    ) {
        let cost = transfer::transfer_cost(from, to, gib);
        let reverse = transfer::transfer_cost(to, from, gib);
        prop_assert_eq!(cost, reverse, "tariff is symmetric");
        if from == to || gib == 0.0 {
            prop_assert_eq!(cost, Usd::ZERO);
        }
        let double = transfer::transfer_cost(from, to, gib * 2.0);
        prop_assert!((double.amount() - 2.0 * cost.amount()).abs() < 1e-9);
        if gib > 0.0 {
            prop_assert!(transfer::transfer_time(from, to, gib) >= SimDuration::from_secs(1));
        }
    }

    /// The crowding multiplier is 1 with no instances, grows monotonically
    /// with concurrent launches, and saturates at 1 + coefficient.
    #[test]
    fn crowding_multiplier_is_monotone(seed in 0u64..100, launches in 1usize..60) {
        let market = Arc::new(SpotMarket::new(MarketConfig::with_seed(seed)));
        let mut ec2 = Ec2::new(market, SimRng::seed_from_u64(seed));
        let region = Region::ApNortheast3;
        let itype = InstanceType::M5Xlarge;
        let mut last = ec2.crowding_multiplier(region, itype);
        prop_assert_eq!(last, 1.0);
        let cap = 1.0 + CROWDING_COEFFICIENT * region.capacity_depth_coefficient();
        let mut t = SimTime::from_days(1);
        for _ in 0..launches {
            // Force a running instance via on-demand (deterministic).
            ec2.launch_on_demand(region, itype, t).unwrap();
            t += SimDuration::from_secs(60);
            let m = ec2.crowding_multiplier(region, itype);
            // On-demand instances do not crowd the spot market.
            prop_assert_eq!(m, 1.0);
            last = m;
        }
        // Spot instances do crowd it.
        let mut spot_running = 0u32;
        for _ in 0..launches {
            if let SpotRequestOutcome::Fulfilled(_) = ec2.request_spot(region, itype, t).unwrap() {
                spot_running += 1;
                t += SimDuration::from_secs(60);
                let m = ec2.crowding_multiplier(region, itype);
                prop_assert!(m >= last - 1e-12, "multiplier decreased: {m} < {last}");
                prop_assert!(m <= cap + 1e-12);
                last = m;
            }
        }
        if spot_running as f64 >= CROWDING_FLEET_SCALE {
            prop_assert!((last - cap).abs() < 1e-9, "should saturate at {cap}, got {last}");
        }
    }

    /// Terminating an on-demand instance bills exactly rate × runtime, for
    /// arbitrary runtimes, and the ledger total matches the sum of
    /// per-instance costs.
    #[test]
    fn on_demand_billing_is_exact(
        seed in 0u64..100,
        runtimes in prop::collection::vec(60u64..200_000, 1..8),
    ) {
        let market = Arc::new(SpotMarket::new(MarketConfig::with_seed(seed)));
        let rate = market
            .on_demand_price(Region::EuWest2, InstanceType::C52xlarge)
            .rate();
        let mut ec2 = Ec2::new(market, SimRng::seed_from_u64(seed));
        let mut expected_total = 0.0;
        for secs in &runtimes {
            let launch = ec2
                .launch_on_demand(Region::EuWest2, InstanceType::C52xlarge, SimTime::from_days(1))
                .unwrap();
            let cost = ec2
                .terminate(
                    launch.instance,
                    SimTime::from_days(1) + SimDuration::from_secs(*secs),
                    TerminationReason::Completed,
                )
                .unwrap();
            let expected = rate * (*secs as f64) / 3600.0;
            prop_assert!((cost.amount() - expected).abs() < 1e-9);
            expected_total += expected;
        }
        let billed = ec2.ledger().total_for_service(ServiceKind::OnDemandInstance);
        prop_assert!((billed.amount() - expected_total).abs() < 1e-6);
    }

    /// Spot usage cost over an interval never exceeds the on-demand cost
    /// for the same interval, anywhere, anytime.
    #[test]
    fn spot_never_out_bills_on_demand(
        seed in 0u64..100,
        region in any_region(),
        start_hour in 0u64..4000,
        len_mins in 1u64..3000,
    ) {
        let market = Arc::new(SpotMarket::new(MarketConfig::with_seed(seed)));
        let ec2 = Ec2::new(market, SimRng::seed_from_u64(seed));
        let start = SimTime::from_hours(start_hour);
        let end = start + SimDuration::from_mins(len_mins);
        let spot = ec2
            .usage_cost(region, InstanceType::M5Xlarge, PurchaseModel::Spot, start, end)
            .unwrap();
        let od = ec2
            .usage_cost(region, InstanceType::M5Xlarge, PurchaseModel::OnDemand, start, end)
            .unwrap();
        prop_assert!(spot.amount() <= od.amount() + 1e-9, "{spot:?} > {od:?}");
        prop_assert!(spot.amount() > 0.0);
    }

    /// The ledger's running totals are the sums of its charges, in charge
    /// order, to the bit: each total equals a sum over the line items the
    /// ledger once stored, and the count equals their number.
    #[test]
    fn ledger_totals_equal_line_item_sums(
        charges in prop::collection::vec(
            (0usize..ServiceKind::ALL.len(), 0usize..4, 0.0f64..1.0),
            0..200,
        ),
    ) {
        let mut ledger = BillingLedger::new();
        let mut line_items: Vec<(ServiceKind, Usd)> = Vec::new();
        for &(s, scale, fraction) in &charges {
            // One charge in four is zero; the rest span ten decades.
            let amount = fraction * [0.0, 1e-6, 1.0, 1e4][scale];
            let (service, amount) = (ServiceKind::ALL[s], Usd::new(amount));
            ledger.charge(service, amount);
            if amount > Usd::ZERO {
                line_items.push((service, amount));
            }
        }
        let total: Usd = line_items.iter().map(|&(_, amount)| amount).sum();
        prop_assert_eq!(ledger.total().amount().to_bits(), total.amount().to_bits());
        for service in ServiceKind::ALL {
            let for_service: Usd = line_items
                .iter()
                .filter(|&&(s, _)| s == service)
                .map(|&(_, amount)| amount)
                .sum();
            prop_assert_eq!(
                ledger.total_for_service(service).amount().to_bits(),
                for_service.amount().to_bits(),
                "{}", service
            );
        }
        prop_assert_eq!(ledger.len(), line_items.len());
        prop_assert_eq!(ledger.is_empty(), line_items.is_empty());
    }
}
