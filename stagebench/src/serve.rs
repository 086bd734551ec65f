//! The closed-loop serve workloads, composed from the library's public calls.
//!
//! One episode is a fixed amount of work: `events` arrivals offered in
//! rounds of `events_per_round`. Per round the main thread admits the
//! round's arrivals ([`RewardJoinBuffer::try_record`]), dispatches one
//! decide job per admitted arrival to the worker owning its code, and waits
//! until every decision has returned — a closed loop, the next round starts
//! only then. It then schedules rewards, joins the ones that came due
//! ([`RewardJoinBuffer::join`]), finalizes the round
//! ([`RewardJoinBuffer::advance_round`]) and dispatches fold jobs for the
//! joined decisions. Workers run [`AgentPool::with_agent_at`] with
//! [`LocalAgent::select_action`] or [`LocalAgent::observe_reward`] inside
//! the closure. Every `rounds_per_epoch` rounds the main thread publishes:
//! it drains the workers' report outboxes ([`AgentPool::drain_reports`]),
//! runs them through a freshly spawned shuffler engine
//! ([`P2bSystem::spawn_engine`], `submit`, `finish`), folds each released
//! batch ([`P2bSystem::ingest_engine_batch`]), captures the new epoch
//! ([`AgentSource::capture`]) and broadcasts it to the workers.
//!
//! Every random draw comes from the arrival process's counter-based noise
//! lanes and jobs for one code always reach one worker in order, so the
//! episode digest is identical across runs and worker counts.
//!
//! [`LocalAgent::select_action`]: p2b_core::LocalAgent::select_action
//! [`LocalAgent::observe_reward`]: p2b_core::LocalAgent::observe_reward

use crate::stats::Fnv;
use crate::trace::{reduce, Reduction, Span, Tracer};
use p2b_bandit::Action;
use p2b_core::{
    AgentPool, AgentPoolConfig, AgentSource, DecisionTicket, P2bConfig, P2bSystem, PoolStats,
    RewardJoinBuffer,
};
use p2b_encoding::{Encoder, KMeansConfig, KMeansEncoder};
use p2b_linalg::Vector;
use p2b_shuffler::{splitmix64, RawReport};
use p2b_sim::{ArrivalConfig, ArrivalProcess, LANE_CONSUMER_BASE};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

const LANE_SELECT: u64 = LANE_CONSUMER_BASE;
const LANE_FOLD: u64 = LANE_CONSUMER_BASE + 1;
const LANE_REWARD_PRESENT: u64 = LANE_CONSUMER_BASE + 2;
const LANE_REWARD_DELAY: u64 = LANE_CONSUMER_BASE + 3;
const LANE_REWARD_NOISE: u64 = LANE_CONSUMER_BASE + 4;

/// How long a harness receive polls before it blocks. The harness's own
/// hand-offs poll, yielding the CPU between polls, so that a virtual
/// machine's wake-up latency does not dominate the barriers while the
/// library's own threads still get the CPU when they need it.
const SPIN: Duration = Duration::from_millis(2);

/// Longest a harness receive waits before it gives up on its peer.
const STALL: Duration = Duration::from_secs(60);

/// Receives with a bounded polling phase before blocking; `None` once every
/// sender is gone or after [`STALL`].
fn receive<T>(rx: &Receiver<T>) -> Option<T> {
    let started = Instant::now();
    loop {
        match rx.try_recv() {
            Ok(value) => return Some(value),
            Err(TryRecvError::Disconnected) => return None,
            Err(TryRecvError::Empty) if started.elapsed() < SPIN => std::thread::yield_now(),
            Err(TryRecvError::Empty) => return rx.recv_timeout(STALL).ok(),
        }
    }
}

/// Main-thread spans that wait on the workers.
pub const WAITS: [&str; 3] = [
    "harness.decide_wait",
    "publish.drain_barrier",
    "harness.shutdown",
];

/// Shape of one serve workload.
#[derive(Debug, Clone)]
pub struct ServeShape {
    /// Workload name, also the kind its digests are recorded under.
    pub name: &'static str,
    /// Simulated user population.
    pub users: u64,
    /// Distinct context codes (the pool's key space).
    pub codes: u64,
    /// Raw context dimension `d`.
    pub dimension: usize,
    /// Number of actions.
    pub actions: usize,
    /// Arrivals offered per episode.
    pub events: u64,
    /// Arrivals offered per round.
    pub events_per_round: u64,
    /// Rounds between published epochs.
    pub rounds_per_epoch: u64,
    /// Join window in rounds.
    pub max_delay: u64,
    /// In-flight ceiling of the join buffer.
    pub in_flight_ceiling: usize,
    /// Resident agents: split across the workers' pools when the cold tail
    /// must rehydrate, per worker otherwise.
    pub resident_agents: usize,
    /// Crowd-blending threshold `l`.
    pub threshold: usize,
    /// Local interactions `T` between reporting opportunities.
    pub local_interactions: u64,
    /// Probability `p` that a reporting opportunity is taken.
    pub participation: f64,
    /// Probability that a decision's reward ever arrives.
    pub reward_probability: f64,
    /// Whether the cold tail must rehydrate (budget below the code count).
    pub expect_rehydrations: bool,
}

impl ServeShape {
    /// Read-heavy: the paper's shape, a pool budget below the codes each
    /// worker owns, an epoch every four rounds.
    #[must_use]
    pub fn decide() -> Self {
        Self {
            name: "serve_decide",
            users: 500_000,
            codes: 256,
            dimension: 16,
            actions: 10,
            events: 32_768,
            events_per_round: 256,
            rounds_per_epoch: 4,
            max_delay: 3,
            in_flight_ceiling: 256 * 6,
            resident_agents: 96,
            threshold: 10,
            local_interactions: 1,
            participation: 0.5,
            reward_probability: 0.75,
            expect_rehydrations: true,
        }
    }

    /// Write-heavy: few codes so crowds clear `l = 2`, every interaction a
    /// reporting opportunity taken with `p = 0.9` (P2B needs `p < 1`), a
    /// wider model, few arrivals and an epoch every round.
    #[must_use]
    pub fn ingest() -> Self {
        Self {
            name: "serve_ingest",
            users: 50_000,
            codes: 16,
            dimension: 16,
            actions: 32,
            events: 1_024,
            events_per_round: 4,
            rounds_per_epoch: 1,
            max_delay: 2,
            in_flight_ceiling: 4 * 5,
            resident_agents: 16,
            threshold: 2,
            local_interactions: 1,
            participation: 0.9,
            reward_probability: 0.75,
            expect_rehydrations: false,
        }
    }

    fn rounds(&self) -> u64 {
        self.events.div_ceil(self.events_per_round)
    }

    /// Residency budget of each worker's pool: the read-heavy shape splits
    /// its budget across workers, the write-heavy one gives every worker
    /// room for every code whatever the partition.
    fn pool_budget(&self, workers: usize) -> usize {
        if self.expect_rehydrations {
            self.resident_agents.div_ceil(workers)
        } else {
            self.resident_agents
        }
    }
}

/// Everything one episode produced.
#[derive(Debug, Default)]
pub struct Episode {
    /// Encoder fit, system build and worker spawn, seconds.
    pub setup_s: f64,
    /// Wall of the timed loop, seconds.
    pub wall_s: f64,
    /// Arrivals offered.
    pub offered: u64,
    /// Arrivals admitted (decisions made).
    pub admitted: u64,
    /// Arrivals shed by the in-flight ceiling.
    pub shed: u64,
    /// Decisions finalized with a reward.
    pub joined: u64,
    /// Decisions finalized without a reward.
    pub expired: u64,
    /// Decisions still pending at shutdown.
    pub in_flight: u64,
    /// Rewards that arrived after their window closed.
    pub late_rewards: u64,
    /// Highest join-buffer occupancy.
    pub peak_occupancy: u64,
    /// Reports submitted to the shuffler engine.
    pub submitted: u64,
    /// Reports the engine released past the threshold.
    pub released: u64,
    /// Reports the central model accepted.
    pub accepted: u64,
    /// Engine flushes, the shutdown flush included.
    pub epochs: u64,
    /// Pool counters summed over workers.
    pub pool: PoolStats,
    /// Per-decision service time (checkout + select + checkin), ns.
    pub decision_ns: Vec<f64>,
    /// Per-decision response time from admission to reply, ns.
    pub response_ns: Vec<f64>,
    /// Per-epoch publish time from drain start to broadcast, ns.
    pub publish_ns: Vec<f64>,
    /// FNV-1a digest of the deterministic summary and the model's bits.
    pub digest: String,
    /// Per-layer reduction of the episode's spans, when traced.
    pub trace: Option<Reduction>,
    /// The episode's spans per thread (main first), when traced.
    pub spans: Vec<Vec<Span>>,
}

struct InFlight {
    index: u64,
    code: u64,
    decided_epoch: u64,
}

enum Job {
    Decide {
        index: u64,
        code: u64,
    },
    Fold {
        index: u64,
        code: u64,
        action: usize,
        reward: f64,
    },
    Refresh(AgentSource),
    Drain(u64),
    Finish,
}

enum Reply {
    Decided {
        index: u64,
        action: usize,
        service_ns: u64,
    },
    Drained(Vec<RawReport>),
    Finished {
        reports: Vec<RawReport>,
        stats: PoolStats,
        spans: Vec<Span>,
    },
    Failed(String),
}

fn unit_draw(noise: u64) -> f64 {
    (noise >> 11) as f64 / (1u64 << 53) as f64
}

fn bounded_draw(noise: u64, n: u64) -> u64 {
    ((u128::from(noise) * u128::from(n)) >> 64) as u64
}

fn owner_of(code: u64, workers: usize) -> usize {
    (splitmix64(code) % workers as u64) as usize
}

fn raw_context(i: usize, dimension: usize) -> Result<Vector, String> {
    let mut raw = vec![0.05; dimension];
    raw[i % dimension] = 1.0 + 0.05 * ((i / dimension) % 7) as f64;
    raw[(i / 3) % dimension] += 0.25;
    Vector::from(raw).normalized_l1().map_err(|e| e.to_string())
}

fn fit_encoder(shape: &ServeShape, seed: u64) -> Result<Arc<dyn Encoder>, String> {
    let corpus = (0..shape.codes as usize * 8)
        .map(|i| raw_context(i, shape.dimension))
        .collect::<Result<Vec<_>, _>>()?;
    let mut rng = StdRng::seed_from_u64(splitmix64(seed ^ 0x0E4C_0DE5));
    let encoder = KMeansEncoder::fit(
        &corpus,
        KMeansConfig::new(shape.codes as usize).with_iterations(10),
        &mut rng,
    )
    .map_err(|e| e.to_string())?;
    Ok(Arc::new(encoder))
}

/// Canonical report order, so the engine sees one stream at any worker
/// count.
fn canonical_sort(reports: &mut [RawReport]) {
    fn key(r: &RawReport) -> (&str, u64, usize, usize, u64) {
        (
            &r.metadata().sender,
            r.metadata().timestamp,
            r.payload().code(),
            r.payload().action(),
            r.payload().reward().to_bits(),
        )
    }
    reports.sort_by(|a, b| key(a).cmp(&key(b)));
}

struct Worker<'a> {
    arrival: &'a ArrivalProcess,
    contexts: &'a [Vector],
    source: AgentSource,
    pool: AgentPool,
    tracer: Tracer,
}

impl Worker<'_> {
    fn run(mut self, jobs: &Receiver<Job>, replies: &Sender<Reply>) {
        while let Some(job) = receive(jobs) {
            // The job span covers the harness's own share of the worker:
            // seeding the draw, the library call and the reply.
            let request = match job {
                Job::Decide { index, .. } | Job::Fold { index, .. } => index,
                Job::Drain(epoch) => epoch,
                Job::Refresh(_) | Job::Finish => 0,
            };
            let span = self.tracer.begin("harness.job", request);
            let mut reply = match self.handle(job) {
                Ok(None) => {
                    self.tracer.end(span);
                    continue;
                }
                Ok(Some(reply)) => reply,
                Err(message) => Reply::Failed(message),
            };
            let last = matches!(reply, Reply::Finished { .. } | Reply::Failed(_));
            let sent = if let Reply::Finished { spans, .. } = &mut reply {
                self.tracer.end(span);
                *spans = self.tracer.take();
                replies.send(reply)
            } else {
                let sent = replies.send(reply);
                self.tracer.end(span);
                sent
            };
            if sent.is_err() || last {
                return;
            }
        }
    }

    fn handle(&mut self, job: Job) -> Result<Option<Reply>, String> {
        let tracer = &mut self.tracer;
        match job {
            Job::Decide { index, code } => {
                let mut rng = StdRng::seed_from_u64(self.arrival.noise(index, LANE_SELECT));
                let context = &self.contexts[code as usize];
                let started = Instant::now();
                let span = tracer.begin("pool.decide", index);
                let action = self.pool.with_agent_at(&self.source, code, |agent| {
                    let inner = tracer.begin("bandit.select", index);
                    let action = agent.select_action(context, &mut rng);
                    tracer.end(inner);
                    action
                });
                tracer.end(span);
                let service_ns = started.elapsed().as_nanos() as u64;
                let action = action.map_err(|e| e.to_string())?.index();
                Ok(Some(Reply::Decided {
                    index,
                    action,
                    service_ns,
                }))
            }
            Job::Fold {
                index,
                code,
                action,
                reward,
            } => {
                let mut rng = StdRng::seed_from_u64(self.arrival.noise(index, LANE_FOLD));
                let context = &self.contexts[code as usize];
                let span = tracer.begin("pool.fold", index);
                let folded = self.pool.with_agent_at(&self.source, code, |agent| {
                    let inner = tracer.begin("bandit.local_fold", index);
                    let folded =
                        agent.observe_reward(context, Action::new(action), reward, &mut rng);
                    tracer.end(inner);
                    folded
                });
                tracer.end(span);
                folded.map_err(|e| e.to_string())?;
                Ok(None)
            }
            Job::Refresh(next) => {
                self.source = next;
                Ok(None)
            }
            Job::Drain(epoch) => {
                let span = tracer.begin("publish.drain", epoch);
                let reports = self.pool.drain_reports();
                tracer.end(span);
                Ok(Some(Reply::Drained(reports)))
            }
            Job::Finish => {
                let span = tracer.begin("pool.park", 0);
                self.pool.park_all();
                let reports = self.pool.drain_reports();
                tracer.end(span);
                Ok(Some(Reply::Finished {
                    reports,
                    stats: *self.pool.stats(),
                    spans: Vec::new(),
                }))
            }
        }
    }
}

/// Runs one episode on `workers` worker threads.
///
/// # Errors
///
/// Returns the first library error, or a message when a worker failed.
pub fn run_episode(
    shape: &ServeShape,
    workers: usize,
    seed: u64,
    traced: bool,
) -> Result<Episode, String> {
    let origin = Instant::now();
    let workers = workers.max(1);
    let arrival = ArrivalProcess::new(ArrivalConfig::new(shape.users, shape.codes, seed))
        .map_err(|e| e.to_string())?;
    let contexts = (0..shape.codes as usize)
        .map(|c| raw_context(c, shape.dimension))
        .collect::<Result<Vec<_>, _>>()?;
    let config = P2bConfig::new(shape.dimension, shape.actions)
        .with_local_interactions(shape.local_interactions)
        .with_participation(shape.participation)
        .with_shuffler_threshold(shape.threshold)
        .with_shuffler_batch_size(1 << 20);
    let mut system =
        P2bSystem::new(config, fit_encoder(shape, seed)?).map_err(|e| e.to_string())?;
    let source = AgentSource::capture(&mut system).map_err(|e| e.to_string())?;
    let budget = shape.pool_budget(workers);
    let (reply_tx, reply_rx) = channel();
    // One reply sender per worker and none left here, so the main thread
    // sees a disconnect once every worker has exited.
    let reply_txs: Vec<Sender<Reply>> = (0..workers).map(|_| reply_tx.clone()).collect();
    drop(reply_tx);
    std::thread::scope(|scope| {
        let mut job_txs = Vec::with_capacity(workers);
        for replies in reply_txs {
            let (tx, rx) = channel();
            job_txs.push(tx);
            let pool =
                AgentPool::new(AgentPoolConfig::bounded(budget)).map_err(|e| e.to_string())?;
            let worker = Worker {
                arrival: &arrival,
                contexts: &contexts,
                source: source.clone(),
                pool,
                tracer: Tracer::new(traced, origin),
            };
            scope.spawn(move || worker.run(&rx, &replies));
        }
        let setup_s = origin.elapsed().as_secs_f64();
        let mut main = MainThread {
            shape,
            seed,
            arrival: &arrival,
            system: &mut system,
            source,
            job_txs,
            replies: &reply_rx,
            tracer: Tracer::new(traced, origin),
            episode: Episode {
                setup_s,
                ..Episode::default()
            },
            lag: BTreeMap::new(),
        };
        let result = main.run();
        // Dropping the job senders ends any worker still waiting for work.
        main.job_txs.clear();
        result
    })
}

/// The generator thread's state: the system, the join buffer's inputs and
/// the episode being measured.
struct MainThread<'a> {
    shape: &'a ServeShape,
    seed: u64,
    arrival: &'a ArrivalProcess,
    system: &'a mut P2bSystem,
    source: AgentSource,
    job_txs: Vec<Sender<Job>>,
    replies: &'a Receiver<Reply>,
    tracer: Tracer,
    episode: Episode,
    lag: BTreeMap<u64, u64>,
}

impl MainThread<'_> {
    fn send(&self, worker: usize, job: Job) -> Result<(), String> {
        self.job_txs[worker]
            .send(job)
            .map_err(|_| "a worker exited early".to_owned())
    }

    fn recv(&self) -> Result<Reply, String> {
        match receive(self.replies) {
            Some(Reply::Failed(message)) => Err(message),
            Some(reply) => Ok(reply),
            None => Err("no reply from the workers".to_owned()),
        }
    }

    fn run(&mut self) -> Result<Episode, String> {
        let shape = self.shape;
        let workers = self.job_txs.len();
        let rounds = shape.rounds();
        let mut join: RewardJoinBuffer<InFlight> =
            RewardJoinBuffer::new(shape.max_delay).with_in_flight_ceiling(shape.in_flight_ceiling);
        let mut due: Vec<Vec<(DecisionTicket, f64)>> = (0..rounds).map(|_| Vec::new()).collect();
        let mut actions: Vec<usize> = vec![0; shape.events as usize];
        let mut tickets: Vec<Option<DecisionTicket>> = vec![None; shape.events as usize];
        let mut admitted_round: Vec<(u64, u64)> =
            Vec::with_capacity(shape.events_per_round as usize);
        let loop_start = self.tracer.now();
        let started = Instant::now();
        let mut next = 0u64;
        for round in 0..rounds {
            let offered = (shape.events - next).min(shape.events_per_round);
            let span = self.tracer.begin("arrival.events", round);
            let events = self.arrival.events(next, next + offered);
            self.tracer.end(span);
            next += offered;
            admitted_round.clear();
            for event in &events {
                let payload = InFlight {
                    index: event.index,
                    code: event.code,
                    decided_epoch: self.source.epoch(),
                };
                let span = self.tracer.begin("join.try_record", event.index);
                let ticket = join.try_record(payload);
                self.tracer.end(span);
                if let Some(ticket) = ticket {
                    tickets[event.index as usize] = Some(ticket);
                    admitted_round.push((event.index, event.code));
                }
            }
            self.episode.offered += offered;
            self.episode.admitted += admitted_round.len() as u64;
            let admitted_at = Instant::now();

            let span = self.tracer.begin("harness.dispatch", round);
            for &(index, code) in &admitted_round {
                self.send(owner_of(code, workers), Job::Decide { index, code })?;
            }
            self.tracer.end(span);

            let span = self.tracer.begin("harness.decide_wait", round);
            for _ in 0..admitted_round.len() {
                let Reply::Decided {
                    index,
                    action,
                    service_ns,
                } = self.recv()?
                else {
                    return Err("unexpected reply at the decision barrier".to_owned());
                };
                let response_ns = admitted_at.elapsed().as_nanos() as f64;
                self.episode.response_ns.push(response_ns);
                self.episode.decision_ns.push(service_ns as f64);
                actions[index as usize] = action;
            }
            self.tracer.end(span);

            let span = self.tracer.begin("harness.schedule", round);
            for &(index, code) in &admitted_round {
                if unit_draw(self.arrival.noise(index, LANE_REWARD_PRESENT))
                    >= shape.reward_probability
                {
                    continue;
                }
                // Delays run to max_delay + 1, so some rewards arrive late.
                let delay = bounded_draw(
                    self.arrival.noise(index, LANE_REWARD_DELAY),
                    shape.max_delay + 2,
                );
                let hit = actions[index as usize] == (code % shape.actions as u64) as usize;
                let noisy = unit_draw(self.arrival.noise(index, LANE_REWARD_NOISE)) < 0.1;
                let reward = if hit || noisy { 1.0 } else { 0.0 };
                let at = round + delay;
                if let (true, Some(ticket)) = (at < rounds, tickets[index as usize]) {
                    due[at as usize].push((ticket, reward));
                }
            }
            self.tracer.end(span);

            for (ticket, reward) in std::mem::take(&mut due[round as usize]) {
                let span = self.tracer.begin("join.join", ticket.value());
                let joined = join.join(ticket, reward);
                self.tracer.end(span);
                joined.map_err(|e| e.to_string())?;
            }
            let span = self.tracer.begin("join.advance_round", round);
            let finalized = join.advance_round();
            self.tracer.end(span);

            let span = self.tracer.begin("harness.dispatch", round);
            for joined in finalized.joined {
                let InFlight {
                    index,
                    code,
                    decided_epoch,
                } = joined.payload;
                *self
                    .lag
                    .entry(self.source.epoch() - decided_epoch)
                    .or_insert(0) += 1;
                let job = Job::Fold {
                    index,
                    code,
                    action: actions[index as usize],
                    reward: joined.reward,
                };
                self.send(owner_of(code, workers), job)?;
            }
            self.tracer.end(span);

            if (round + 1) % shape.rounds_per_epoch == 0 || round + 1 == rounds {
                self.publish()?;
            }
        }

        // Shutdown: park every agent and flush what that queued.
        self.episode.in_flight = join.pending() as u64;
        let span = self.tracer.begin("harness.shutdown", self.episode.epochs);
        for worker in 0..workers {
            self.send(worker, Job::Finish)?;
        }
        let mut reports = Vec::new();
        let mut worker_spans = Vec::with_capacity(workers);
        for _ in 0..workers {
            let Reply::Finished {
                reports: more,
                stats,
                spans,
            } = self.recv()?
            else {
                return Err("unexpected reply at shutdown".to_owned());
            };
            reports.extend(more);
            self.episode.pool.hits += stats.hits;
            self.episode.pool.rehydrations += stats.rehydrations;
            self.episode.pool.creations += stats.creations;
            self.episode.pool.evictions += stats.evictions;
            worker_spans.push(spans);
        }
        self.tracer.end(span);
        if !reports.is_empty() {
            self.flush(reports)?;
        }
        self.episode.wall_s = started.elapsed().as_secs_f64();
        let loop_end = self.tracer.now();

        let stats = *join.stats();
        self.episode.shed = join.shed();
        self.episode.joined = stats.joined;
        self.episode.expired = stats.expired;
        self.episode.late_rewards = stats.late_rewards;
        self.episode.peak_occupancy = join.peak_pending() as u64;
        self.episode.digest = self.digest()?;
        let main = self.tracer.take();
        if !main.is_empty() {
            let mut threads = vec![main];
            threads.extend(worker_spans);
            self.episode.trace = Some(reduce(&threads, (loop_start, loop_end), &WAITS));
            self.episode.spans = threads;
        }
        Ok(std::mem::take(&mut self.episode))
    }

    /// Epoch boundary: drain barrier, engine flush, fold, capture, broadcast.
    fn publish(&mut self) -> Result<(), String> {
        let epoch = self.episode.epochs;
        let started = Instant::now();
        let root = self.tracer.begin("publish.epoch", epoch);
        let span = self.tracer.begin("publish.drain_barrier", epoch);
        for worker in 0..self.job_txs.len() {
            self.send(worker, Job::Drain(epoch))?;
        }
        let mut reports = Vec::new();
        for _ in 0..self.job_txs.len() {
            let Reply::Drained(more) = self.recv()? else {
                return Err("unexpected reply at the drain barrier".to_owned());
            };
            reports.extend(more);
        }
        self.tracer.end(span);
        self.flush(reports)?;
        let span = self.tracer.begin("publish.broadcast", epoch);
        for worker in 0..self.job_txs.len() {
            self.send(worker, Job::Refresh(self.source.clone()))?;
        }
        self.tracer.end(span);
        self.tracer.end(root);
        self.episode
            .publish_ns
            .push(started.elapsed().as_nanos() as f64);
        Ok(())
    }

    /// Shuffles, folds and captures one epoch's reports.
    fn flush(&mut self, mut reports: Vec<RawReport>) -> Result<(), String> {
        let epoch = self.episode.epochs;
        let span = self.tracer.begin("harness.canonical_sort", epoch);
        canonical_sort(&mut reports);
        self.tracer.end(span);
        self.episode.submitted += reports.len() as u64;
        let err = |e: &dyn std::fmt::Display| e.to_string();

        let span = self.tracer.begin("shuffler.spawn", epoch);
        let handle = self
            .system
            .spawn_engine(splitmix64(self.seed ^ (0xF1A5 << 16) ^ epoch));
        self.tracer.end(span);
        let handle = handle.map_err(|e| err(&e))?;
        let span = self.tracer.begin("shuffler.submit", epoch);
        let submitted = reports.into_iter().try_for_each(|r| handle.submit(r));
        self.tracer.end(span);
        submitted.map_err(|e| err(&e))?;
        let span = self.tracer.begin("shuffler.finish", epoch);
        let output = handle.finish();
        self.tracer.end(span);

        for batch in &output.batches {
            let span = self.tracer.begin("ingest.fold", epoch);
            let stats = self.system.ingest_engine_batch(batch);
            self.tracer.end(span);
            let stats = stats.map_err(|e| err(&e))?;
            self.episode.released += stats.released as u64;
            self.episode.accepted += stats.accepted;
        }
        let span = self.tracer.begin("publish.capture", epoch);
        let source = AgentSource::capture(self.system);
        self.tracer.end(span);
        self.source = source.map_err(|e| err(&e))?;
        self.episode.epochs += 1;
        Ok(())
    }

    /// Digest of the worker-count-invariant counts and the published
    /// model's exact bits.
    fn digest(&self) -> Result<String, String> {
        let e = &self.episode;
        let mut fnv = Fnv::default();
        for value in [
            e.offered,
            e.admitted,
            e.shed,
            e.joined,
            e.expired,
            e.in_flight,
            e.late_rewards,
            e.peak_occupancy,
            e.submitted,
            e.released,
            e.accepted,
            e.epochs,
            self.source.epoch(),
        ] {
            fnv.u64(value);
        }
        for (&lag, &count) in &self.lag {
            fnv.u64(lag);
            fnv.u64(count);
        }
        let model = self.source.snapshot().model();
        for a in 0..self.shape.actions {
            let action = Action::new(a);
            fnv.u64(model.pulls(action).map_err(|e| e.to_string())?);
            for &x in model.design(action).map_err(|e| e.to_string())?.as_slice() {
                fnv.f64(x);
            }
            for &x in model
                .reward_vector(action)
                .map_err(|e| e.to_string())?
                .as_slice()
            {
                fnv.f64(x);
            }
        }
        Ok(fnv.hex())
    }
}

/// Output checks of one episode; returns the violations.
#[must_use]
pub fn check_episode(shape: &ServeShape, e: &Episode) -> Vec<String> {
    let mut violations = Vec::new();
    let mut expect = |ok: bool, what: String| {
        if !ok {
            violations.push(what);
        }
    };
    expect(
        e.offered == e.admitted + e.shed,
        format!(
            "offered {} != admitted {} + shed {}",
            e.offered, e.admitted, e.shed
        ),
    );
    expect(
        e.admitted == e.joined + e.expired + e.in_flight,
        format!(
            "admitted {} != joined {} + expired {} + in flight {}",
            e.admitted, e.joined, e.expired, e.in_flight
        ),
    );
    expect(
        e.accepted <= e.released && e.released <= e.submitted,
        format!(
            "not accepted {} <= released {} <= submitted {}",
            e.accepted, e.released, e.submitted
        ),
    );
    expect(
        e.peak_occupancy <= shape.in_flight_ceiling as u64,
        format!("join occupancy {} above the ceiling", e.peak_occupancy),
    );
    expect(
        e.shed == 0,
        format!("{} arrivals shed; the workload admits all", e.shed),
    );
    expect(
        e.decision_ns.len() as u64 == e.admitted,
        format!(
            "{} decisions timed for {} admitted",
            e.decision_ns.len(),
            e.admitted
        ),
    );
    expect(
        e.accepted > 0,
        "no report reached the published model".to_owned(),
    );
    if shape.expect_rehydrations {
        expect(
            e.pool.rehydrations > 0,
            "the cold tail never rehydrated".to_owned(),
        );
    } else {
        expect(
            e.pool.evictions == 0,
            format!("{} evictions; the hot set should fit", e.pool.evictions),
        );
    }
    violations
}
