//! Serving front-end integration: dynamic batching must be invisible
//! in the bytes, and the server must survive real concurrency.
//!
//! The load-bearing property is **batch-1 equivalence**: whatever
//! micro-batches the dispatcher forms — ragged request sizes, mixed
//! uncertainty flags, interleaved tenants, jittered arrivals — every
//! response is byte-identical to serving the same request alone on a
//! standalone `UncertaintyEngine` with the tenant's spec. The server
//! coalesces at the dispatch level (it never concatenates tensors), so
//! this holds by construction; these tests pin it against regressions.

use neural_dropout_search::adaptive::AdaptivePolicy;
use neural_dropout_search::dropout::{DropoutKind, DropoutLayer, DropoutSettings};
use neural_dropout_search::engine::{
    EngineBuilder, PredictRequest, UncertaintyEngine, UncertaintyFlags,
};
use neural_dropout_search::nn::arch::{FeatureShape, SlotInfo, SlotPosition};
use neural_dropout_search::nn::layers::{Flatten, Linear, Sequential};
use neural_dropout_search::serve::{ServeRequest, ServerBuilder, TenantSpec};
use neural_dropout_search::tensor::rng::Rng64;
use neural_dropout_search::tensor::{Shape, Tensor};
use proptest::prelude::*;

/// A small network with a live dropout layer: mask-stream positions are
/// observable in the bytes, so any coalescing that perturbed a stream
/// would fail the equivalence assertions.
fn stochastic_net(seed: u64) -> Sequential {
    let mut rng = Rng64::new(seed);
    let mut net = Sequential::new();
    net.push(Box::new(Flatten::new()));
    net.push(Box::new(Linear::new(16, 12, true, &mut rng)));
    let slot = SlotInfo {
        id: 0,
        shape: FeatureShape::Vector { features: 12 },
        position: SlotPosition::FullyConnected,
    };
    net.push(Box::new(
        DropoutLayer::for_slot(
            DropoutKind::Bernoulli,
            &slot,
            &DropoutSettings {
                rate: 0.4,
                ..DropoutSettings::default()
            },
            seed,
        )
        .unwrap(),
    ));
    net.push(Box::new(Linear::new(12, 4, true, &mut rng)));
    net
}

fn images(seed: u64, n: usize) -> Tensor {
    let mut rng = Rng64::new(seed);
    Tensor::rand_normal(Shape::d4(n, 1, 4, 4), 0.0, 1.0, &mut rng)
}

/// Maps a 3-bit selector onto an uncertainty-flag combination.
fn flags_from_bits(bits: u8) -> UncertaintyFlags {
    let mut flags = UncertaintyFlags::NONE;
    if bits & 1 != 0 {
        flags = flags | UncertaintyFlags::ENTROPY;
    }
    if bits & 2 != 0 {
        flags = flags | UncertaintyFlags::MUTUAL_INFORMATION;
    }
    if bits & 4 != 0 {
        flags = flags | UncertaintyFlags::VARIANCE;
    }
    flags
}

/// The three tenant specs every equivalence test shares: distinct
/// seeds and sample counts, so misrouting a request to the wrong
/// tenant's engine changes bytes.
const TENANTS: [TenantSpec; 3] = [
    TenantSpec {
        seed: 0,
        samples: 3,
        adaptive: AdaptivePolicy::disabled(),
    },
    TenantSpec {
        seed: 101,
        samples: 2,
        adaptive: AdaptivePolicy::disabled(),
    },
    TenantSpec {
        seed: 202,
        samples: 4,
        adaptive: AdaptivePolicy::disabled(),
    },
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Dynamic batching is byte-invisible: under ragged request sizes,
    /// mixed flags, interleaved tenants and jittered arrival order,
    /// every served response equals the standalone engine's bytes for
    /// the same (tenant spec, input, flags).
    #[test]
    fn dynamic_batching_is_byte_identical_to_batch_1(
        case_seed in 0u64..10_000,
        request_count in 2usize..9,
        max_batch in 1usize..7,
        jitter in 0u64..3,
    ) {
        let net = stochastic_net(42);
        let mut builder = ServerBuilder::new(net.clone())
            .max_batch(max_batch);
        let tenant_ids: Vec<_> = TENANTS.iter().map(|s| builder.tenant(s.clone())).collect();
        let server = builder.build();

        // Derive each request's shape from the case seed: tenant,
        // ragged batch size, flag mix, and an arrival-jitter pause.
        let mut rng = Rng64::new(case_seed);
        let plans: Vec<(usize, usize, u8, u64)> = (0..request_count)
            .map(|_| {
                (
                    (rng.next_u64() % TENANTS.len() as u64) as usize,
                    1 + (rng.next_u64() % 5) as usize,
                    (rng.next_u64() % 8) as u8,
                    rng.next_u64() % (jitter * 200 + 1),
                )
            })
            .collect();

        let tickets: Vec<_> = plans
            .iter()
            .enumerate()
            .map(|(i, &(tenant, n, bits, pause_us))| {
                if pause_us > 0 {
                    std::thread::sleep(std::time::Duration::from_micros(pause_us));
                }
                let request = ServeRequest::new(images(case_seed + i as u64, n))
                    .with_outputs(flags_from_bits(bits));
                server.submit(tenant_ids[tenant], request).unwrap()
            })
            .collect();
        let responses: Vec<_> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
        server.shutdown();

        // Batch-1 reference: a standalone engine per tenant. Engine
        // bytes depend only on (net, seed, samples, input, flags) —
        // never on what ran before — so one engine per tenant serves
        // as the reference for all of that tenant's requests.
        let mut reference: Vec<UncertaintyEngine> = TENANTS
            .iter()
            .map(|spec| {
                EngineBuilder::new(net.clone())
                    .seed(spec.seed)
                    .samples(spec.samples)
                    .build()
            })
            .collect();
        for (i, (&(tenant, n, bits, _), served)) in
            plans.iter().zip(responses.iter()).enumerate()
        {
            let x = images(case_seed + i as u64, n);
            let direct = reference[tenant]
                .predict(&PredictRequest::new(&x).with_outputs(flags_from_bits(bits)))
                .unwrap();
            prop_assert_eq!(served.tenant, tenant_ids[tenant]);
            prop_assert!(served.timing.batch_size >= 1 && served.timing.batch_size <= max_batch);
            prop_assert_eq!(
                served.prediction.probs.as_slice(),
                direct.probs.as_slice(),
                "request {} (tenant {}, n {}): batched probs differ from batch-1",
                i,
                tenant,
                n
            );
            prop_assert_eq!(&served.prediction.entropy, &direct.entropy);
            prop_assert_eq!(
                &served.prediction.mutual_information,
                &direct.mutual_information
            );
            prop_assert_eq!(&served.prediction.variance, &direct.variance);
            prop_assert_eq!(
                served.prediction.achieved_samples,
                TENANTS[tenant].samples
            );
        }
    }
}

/// Many client threads hammering one server: every submission is
/// answered exactly once with the right tenant's bytes, and shutdown
/// is clean with nothing dropped. This is the CI smoke for the
/// multi-threaded serving path (`NDS_THREADS` governs the engine
/// worker pool underneath; the client threads here are on top).
#[test]
fn concurrent_clients_all_get_their_own_answers() {
    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 6;

    let net = stochastic_net(7);
    let mut builder = ServerBuilder::new(net.clone()).max_batch(4);
    let tenant_ids: Vec<_> = TENANTS.iter().map(|s| builder.tenant(s.clone())).collect();
    let server = builder.build();

    let responses = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let server = &server;
                let tenant_ids = &tenant_ids;
                scope.spawn(move || {
                    (0..PER_CLIENT)
                        .map(|i| {
                            let tenant = (client + i) % TENANTS.len();
                            let n = 1 + (client + i) % 4;
                            let request =
                                ServeRequest::new(images((client * PER_CLIENT + i) as u64, n))
                                    .with_outputs(UncertaintyFlags::ENTROPY);
                            let response = server
                                .submit(tenant_ids[tenant], request)
                                .unwrap()
                                .wait()
                                .unwrap();
                            (client, i, tenant, n, response)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect::<Vec<_>>()
    });
    server.shutdown();

    assert_eq!(responses.len(), CLIENTS * PER_CLIENT, "no response dropped");
    let mut reference: Vec<UncertaintyEngine> = TENANTS
        .iter()
        .map(|spec| {
            EngineBuilder::new(net.clone())
                .seed(spec.seed)
                .samples(spec.samples)
                .build()
        })
        .collect();
    for (client, i, tenant, n, response) in responses {
        let x = images((client * PER_CLIENT + i) as u64, n);
        let direct = reference[tenant]
            .predict(&PredictRequest::new(&x).with_outputs(UncertaintyFlags::ENTROPY))
            .unwrap();
        assert_eq!(response.tenant, tenant_ids[tenant]);
        assert_eq!(
            response.prediction.probs.as_slice(),
            direct.probs.as_slice(),
            "client {client} request {i}: response bytes must match batch-1"
        );
        assert_eq!(response.prediction.entropy, direct.entropy);
    }
}
