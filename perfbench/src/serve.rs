//! The `serve` workload: a closed loop of plan requests against an
//! in-process plan server on loopback.

use crate::ops::{mix, op_seed};
use crate::trace::Tracer;
use adaptcomm_core::execution::execute_listed;
use adaptcomm_core::matrix::CommMatrix;
use adaptcomm_obs::trace::TraceContext;
use adaptcomm_plansrv::proto::{self, PlanOk, PlanRequest, PlanResponse, QosSpec, Request};
use adaptcomm_plansrv::{CacheDisposition, PlanClient, PlanServer, PlanServerConfig};
use adaptcomm_workloads::Scenario;
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Mutex;
use std::time::{Duration, Instant};

pub const SERVE_P: usize = 128;
pub const CLIENTS: usize = 2;
const POOL: usize = 8;
const ALGORITHM: &str = "matching-max";
/// Requests per client whose answers feed the exactly repeating
/// figures (`lb_ratio`, the disposition shares, the scan counts).
pub const FIXED_REQUESTS: usize = 40;
/// The processor count of the frame-size probe after the loop.
pub const PROBE_P: usize = 1024;

/// What the client asked for. The server decides the disposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// An exact repeat of a pool instance.
    Repeat,
    /// A fresh ±2 % perturbation of a pool instance.
    Perturbed,
    /// An instance the server has never seen.
    Unseen,
}

/// One request as the client saw it.
#[derive(Debug, Clone)]
pub struct Answer {
    pub seq: usize,
    pub kind: Kind,
    pub round_trip_ms: f64,
    pub service_ms: f64,
    pub cache: CacheDisposition,
    pub col_scans: u64,
    pub lb_ratio: f64,
    /// Client codec probes (traced requests only).
    pub encode_ms: Option<f64>,
    pub parse_ms: Option<f64>,
    pub request_bytes: usize,
    pub response_bytes: usize,
}

/// A bound server, its primed pool and one connection per client.
pub struct ServeSetup {
    server: PlanServer,
    clients: Vec<PlanClient>,
    pool: Vec<CommMatrix>,
    /// Every order the server computed per matrix fingerprint: a hit must
    /// replay one of them verbatim.
    served: Mutex<HashMap<u64, Vec<Vec<Vec<usize>>>>>,
    seed: u64,
}

fn tenant(client: usize) -> String {
    format!("tenant-{client}")
}

impl ServeSetup {
    /// Binds the server, connects the clients and primes the pool.
    pub fn new(seed: u64) -> Result<Self, String> {
        let server = PlanServer::bind("127.0.0.1:0", PlanServerConfig::default())
            .map_err(|e| format!("bind: {e}"))?;
        let clients = (0..CLIENTS)
            .map(|_| PlanClient::connect(server.local_addr()).map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        let pool: Vec<CommMatrix> = (0..POOL as u64)
            .map(|k| {
                Scenario::Mixed
                    .instance(SERVE_P, op_seed(seed ^ 0x5e7e, k))
                    .matrix
            })
            .collect();
        let mut setup = ServeSetup {
            server,
            clients,
            pool,
            served: Mutex::new(HashMap::new()),
            seed,
        };
        for k in 0..POOL {
            let m = setup.pool[k].clone();
            let ok = plan_ok(setup.clients[k % CLIENTS].plan(
                &tenant(k % CLIENTS),
                ALGORITHM,
                &m,
                QosSpec::default(),
            ))?;
            setup.check(&m, &ok)?;
        }
        Ok(setup)
    }

    /// An answer's order must reproduce its completion, and a hit must
    /// replay an order the server computed for the same matrix.
    fn check(&self, m: &CommMatrix, ok: &PlanOk) -> Result<(), String> {
        let completion = execute_listed(&ok.order, m).completion_time().as_ms();
        if (completion - ok.completion_ms).abs() > 1e-9 * completion.max(1.0) {
            return Err(format!(
                "answer completion {} ms but its order executes to {completion} ms",
                ok.completion_ms
            ));
        }
        let mut served = self.served.lock().expect("served map poisoned");
        let known = served.entry(m.fingerprint()).or_default();
        if ok.cache == CacheDisposition::Hit {
            if !known.contains(&ok.order.order) {
                return Err("a cache hit returned an order never computed for its matrix".into());
            }
        } else if !known.contains(&ok.order.order) {
            known.push(ok.order.order.clone());
        }
        Ok(())
    }

    /// The closed loop: each client sends its next request when the
    /// previous one is answered, until `seconds` have passed. With
    /// `traced`, every other request of each client is traced.
    pub fn run(
        &mut self,
        seconds: f64,
        traced: bool,
        epoch: Instant,
    ) -> (Vec<Answer>, Vec<String>, f64, Vec<Tracer>) {
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        let t0 = Instant::now();
        let clients = std::mem::take(&mut self.clients);
        let this = &*self;
        let results: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = clients
                .into_iter()
                .enumerate()
                .map(|(c, mut client)| {
                    s.spawn(move || {
                        let mut tracer = Tracer::new(epoch, c as u64 + 1);
                        let mut answers = Vec::new();
                        let mut failures = Vec::new();
                        let mut seq = 0;
                        while Instant::now() < deadline {
                            let trace_this = traced && seq % 2 == 1;
                            let t = trace_this.then_some(&mut tracer);
                            match this.request(&mut client, c, seq, t) {
                                Ok(a) => answers.push(a),
                                Err(e) => failures.push(format!("client {c} request {seq}: {e}")),
                            }
                            seq += 1;
                        }
                        (client, answers, failures, tracer)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let wall_s = t0.elapsed().as_secs_f64();
        let (mut answers, mut failures, mut tracers) = (Vec::new(), Vec::new(), Vec::new());
        for (client, a, f, t) in results {
            self.clients.push(client);
            answers.extend(a);
            failures.extend(f);
            tracers.push(t);
        }
        (answers, failures, wall_s, tracers)
    }

    /// Request `seq` of client `c`: 60 % repeats, 25 % perturbations,
    /// 15 % unseen instances, drawn from the seed.
    fn request(
        &self,
        client: &mut PlanClient,
        c: usize,
        seq: usize,
        tracer: Option<&mut Tracer>,
    ) -> Result<Answer, String> {
        let r = mix(op_seed(self.seed, ((c as u64) << 32) | seq as u64));
        let base = &self.pool[(r >> 8) as usize % POOL];
        let (kind, m) = match r % 100 {
            0..=59 => (Kind::Repeat, base.clone()),
            60..=84 => (Kind::Perturbed, perturb(base, r)),
            _ => (Kind::Unseen, Scenario::Mixed.instance(SERVE_P, r).matrix),
        };
        let tenant = tenant(c);
        let op = ((c as u64) << 32) | seq as u64;
        let ms = |t: Instant| t.elapsed().as_secs_f64() * 1000.0;
        let mut codec = None;
        let (resp, round_trip_ms) = match tracer {
            None => {
                let t0 = Instant::now();
                let resp = client.plan(&tenant, ALGORITHM, &m, QosSpec::default());
                (resp, ms(t0))
            }
            Some(t) => {
                let (resp, rt) = t.scope("plansrv.request", op, |t| {
                    let t0 = Instant::now();
                    let resp = client.plan(&tenant, ALGORITHM, &m, QosSpec::default());
                    let rt = ms(t0);
                    if let Ok(PlanResponse::Ok(ok)) = &resp {
                        // The server's own time, placed in the middle of
                        // the round trip.
                        let service_us = (ok.stats.service_ms * 1000.0) as u64;
                        let rest_us = ((rt - ok.stats.service_ms).max(0.0) * 500.0) as u64;
                        let end = t.now_us().saturating_sub(rest_us);
                        t.reported("plansrv.service", op, service_us, Some(end));
                    }
                    (resp, rt)
                });
                if let Ok(answer) = &resp {
                    // The client codec on this request's own bytes.
                    let request = Request::Plan(PlanRequest {
                        tenant: tenant.clone(),
                        algorithm: ALGORITHM.to_string(),
                        matrix: Some(m.clone()),
                        fingerprint: Some(m.fingerprint()),
                        qos: QosSpec::default(),
                        trace: Some(TraceContext::root(&tenant, seq as u64)),
                    });
                    let payload = proto::encode_response(answer);
                    codec = Some(t.scope("probe", op, |t| {
                        let te = Instant::now();
                        let bytes = t.span("plansrv.codec.encode_request", op, || {
                            black_box(proto::encode_request(&request))
                        });
                        let encode_ms = ms(te);
                        let tp = Instant::now();
                        let parsed = t.span("plansrv.codec.parse_response", op, || {
                            black_box(proto::parse_response(&payload))
                        });
                        let parse_ms = ms(tp);
                        (
                            encode_ms,
                            parse_ms,
                            bytes.len(),
                            payload.len(),
                            parsed.is_ok(),
                        )
                    }));
                }
                (resp, rt)
            }
        };
        let ok = plan_ok(resp)?;
        self.check(&m, &ok)?;
        if let Some((.., false)) = codec {
            return Err("the client codec could not parse the answer".into());
        }
        Ok(Answer {
            seq,
            kind,
            round_trip_ms,
            service_ms: ok.stats.service_ms,
            cache: ok.cache,
            col_scans: ok.stats.total_col_scans,
            lb_ratio: ok.completion_ms / m.lower_bound().as_ms(),
            encode_ms: codec.map(|c| c.0),
            parse_ms: codec.map(|c| c.1),
            request_bytes: codec.map_or(0, |c| c.2),
            response_bytes: codec.map_or(0, |c| c.3),
        })
    }

    /// Sends one `PROBE_P` plan request and reports whether it failed.
    /// Its request frame is larger than the protocol's `MAX_FRAME`.
    pub fn frame_probe(&mut self) -> bool {
        let m = Scenario::Mixed
            .instance(PROBE_P, mix(self.seed ^ 0xf4a3e))
            .matrix;
        let client = self.clients.last_mut().expect("a client");
        !matches!(
            client.plan(&tenant(CLIENTS - 1), ALGORITHM, &m, QosSpec::default()),
            Ok(PlanResponse::Ok(_))
        )
    }

    /// Stops the server through the first client and joins it; if the
    /// control frame fails, stops it directly.
    pub fn shutdown(mut self) -> Result<(), String> {
        let bye = self.clients.swap_remove(0).shutdown();
        drop(self.clients);
        match bye {
            Ok(PlanResponse::Bye) => {
                self.server.join();
                Ok(())
            }
            other => {
                self.server.shutdown();
                Err(format!("shutdown answered {other:?}"))
            }
        }
    }
}

fn plan_ok(
    resp: Result<PlanResponse, adaptcomm_plansrv::ClientError>,
) -> Result<Box<PlanOk>, String> {
    match resp {
        Ok(PlanResponse::Ok(ok)) => Ok(ok),
        Ok(other) => Err(format!("not a plan: {other:?}")),
        Err(e) => Err(e.to_string()),
    }
}

/// `base` with every off-diagonal cell scaled by a factor in
/// [0.98, 1.02] drawn from `salt`.
fn perturb(base: &CommMatrix, salt: u64) -> CommMatrix {
    let p = base.len();
    CommMatrix::from_fn(p, |s, d| {
        let u = (mix(salt ^ (s * p + d) as u64) >> 11) as f64 / (1u64 << 53) as f64;
        base.cost(s, d).as_ms() * (0.98 + 0.04 * u)
    })
}
