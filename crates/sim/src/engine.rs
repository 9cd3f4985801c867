//! The discrete-event simulation engine.
//!
//! # Execution model
//!
//! A simulated thread is a *context* — a stack of its own and the place
//! execution stopped on it (`context.rs`) — not an OS thread. Every context
//! of an engine runs on the one OS thread that called [`Engine::run`], one
//! at a time, and a hand-off is a switch of stacks in user space: nobody is
//! woken, nobody sleeps, and the host scheduler has nothing to place. All
//! inter-thread ordering is decided by a single event queue ordered by
//! `(virtual time, sequence number)`, so a simulation is fully
//! deterministic.
//!
//! The running context holds the *baton*, and whoever holds the baton
//! decides who runs next. A thread that finishes its turn (by advancing
//! virtual time, parking, or exiting) queues its own event if it has one
//! and calls `step()` itself: pick the next event in default order or by
//! the [`SchedulePolicy`], accept it, fire the sampler, mark its thread
//! running. If that event is the caller's own, the caller keeps running.
//! If it is another thread's, the caller switches to that thread's context
//! and is running again when someone switches back. If the run is over —
//! the queue drained, the event budget is spent, a callback or the thread's
//! own closure panicked — the caller leaves the reason in a one-entry slot
//! and switches to the *driver*: the context `run` was called on. The
//! driver runs the first `step()`, switches to the thread it picked, and is
//! next resumed with the reason the run ended. It then switches into every
//! context that is still alive with its slot marked exited — the context
//! unwinds to its entry function, or drops its closure unrun if it never
//! started, and switches back — and translates the reason into `run`'s
//! result. A thread that exits runs its last `step()` and returns the
//! context it picked to `context.rs`, which makes the switch that never
//! returns.
//!
//! Exactly one context runs at any moment and a switch is an ordinary
//! function call on one OS thread, so an engine and everything its threads
//! share need no lock: the engine is `!Send` — `Rc`, `RefCell` and `Cell`
//! inside — and the compiler refuses to move it, a `SimChannel` or a
//! `SimCtx` to another OS thread. Spawned closures need not be `Send`
//! either; simulated threads may share state through `Rc<RefCell<_>>`. (A
//! `RefCell` borrow held *across* `advance` or `park` makes the next thread
//! that borrows it panic.)
//!
//! # Borrowing
//!
//! The scheduling state sits in one `RefCell`, and a turn borrows it once:
//! `advance`, `park`, `park_until` and thread exit borrow it for their own
//! bookkeeping and hand the `RefMut` *by value* to `pass_baton` and
//! `step()`, which picks, accepts and marks the next thread running under
//! it and returns owned values only. No borrow is therefore alive at a
//! switch; one that were — left on a suspended stack — would make the next
//! context's first `borrow_mut()` panic there with "already borrowed".
//! `step()` lets go early only around sampler callbacks that are due. The
//! clock, whether a policy is installed and whether shutdown has begun are
//! `Cell`s beside the state, read without borrowing it.
//!
//! Callbacks — the sampler, [`SchedulePolicy::choose_event`] — run inside
//! `step()`, so always on the `run()` caller's OS thread, but after the
//! first event on a simulated thread's 512 KiB stack: no deep recursion
//! there. `thread_local!` state is per OS thread and therefore shared by
//! the driver and *all* simulated threads of the engine; nothing can be
//! kept per simulated thread in one.
//!
//! # Thread lifecycle
//!
//! * [`Engine::spawn`] / [`SimCtx::spawn`] create a thread; it first runs at
//!   the virtual instant it was spawned.
//! * [`SimCtx::advance`] moves the thread forward in virtual time.
//! * [`SimCtx::park`] blocks until another thread calls [`SimCtx::unpark`].
//! * Returning from the closure exits the thread.
//!
//! When the event queue drains, the engine shuts down remaining *daemon*
//! threads (infrastructure loops such as message handlers) by unwinding
//! them; a remaining parked **non-daemon** thread is reported as a
//! deadlock.

use std::cell::{Cell, RefCell, RefMut};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::panic::{self, AssertUnwindSafe};
use std::rc::Rc;

use crate::context::{self, Context};
use crate::replay::ScheduleLog;
use crate::time::{SimDuration, SimTime};

/// Identifies a simulated thread within one [`Engine`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ThreadId(pub u64);

impl std::fmt::Display for ThreadId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sim-thread-{}", self.0)
    }
}

/// Error returned by [`Engine::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The event queue drained while non-daemon threads were still parked;
    /// the named threads can never run again.
    Deadlock {
        /// Names of the parked non-daemon threads.
        parked: Vec<String>,
    },
    /// The configured event budget was exhausted, which usually indicates a
    /// livelock in the simulated system.
    EventBudgetExhausted {
        /// The budget that was exceeded.
        budget: u64,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Deadlock { parked } => {
                write!(f, "simulation deadlock: threads parked forever: {parked:?}")
            }
            SimError::EventBudgetExhausted { budget } => {
                write!(f, "simulation exceeded event budget of {budget} events")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Token unwound through a simulated thread when the engine shuts it down.
///
/// Library code never needs to touch this: the per-thread wrapper catches
/// it. It is public only so that `catch_unwind`-using callers can
/// distinguish engine shutdown from a genuine panic.
pub struct ShutdownToken;

/// One candidate event at a scheduling frontier — an event the engine
/// could legally accept next. All candidates handed to a policy are
/// pending at the *same* virtual instant; picking among them permutes a
/// same-timestamp tie, never reorders virtual time itself.
#[derive(Clone, Debug)]
pub struct ScheduleChoice {
    /// The thread the event would resume.
    pub tid: ThreadId,
    /// The thread's name (as given at spawn).
    pub name: String,
    /// `true` for a park-timeout timer firing, `false` for an ordinary
    /// resume (advance, unpark, first run).
    pub is_timer: bool,
}

/// Hook through which every nondeterministic decision of the engine is
/// routed: which same-instant event runs next ([`choose_event`]) and
/// auxiliary value choices raised by simulated code via
/// [`SimCtx::choose`] ([`choose_value`]).
///
/// The engine without a policy installed behaves byte-identically to
/// [`DefaultSchedulePolicy`] (always picks the lowest sequence number —
/// today's fixed heap order). Exploration tools install policies that
/// permute the ties to enumerate alternative schedules.
///
/// [`choose_event`]: SchedulePolicy::choose_event
/// [`choose_value`]: SchedulePolicy::choose_value
pub trait SchedulePolicy {
    /// Picks which of `candidates` runs next. All candidates are pending
    /// at virtual instant `now` and are presented in queue order (lowest
    /// sequence number first), so returning `0` reproduces the default
    /// schedule. Out-of-range returns are clamped. Like the sampler, this
    /// runs inside the engine's `step()`: on the `run()` caller's OS thread
    /// but usually on a simulated thread's 512 KiB stack, with no simulated
    /// code running.
    fn choose_event(&mut self, now: SimTime, candidates: &[ScheduleChoice]) -> usize {
        let _ = (now, candidates);
        0
    }

    /// Resolves an `n`-way value choice raised by simulated code (e.g.
    /// which of several already-arrived messages to deliver first). `tag`
    /// identifies the choice site. Returning `0` reproduces the default
    /// behavior. Out-of-range returns are clamped.
    fn choose_value(&mut self, tag: &str, n: usize) -> usize {
        let _ = (tag, n);
        0
    }
}

/// The identity policy: always picks candidate `0`, reproducing the
/// engine's built-in `(time, seq)` heap order byte for byte. Installing
/// it is indistinguishable from installing no policy at all (enforced by
/// test).
#[derive(Clone, Copy, Debug, Default)]
pub struct DefaultSchedulePolicy;

impl SchedulePolicy for DefaultSchedulePolicy {}

/// Shared, cloneable handle to a [`SchedulePolicy`], installable via
/// [`Engine::set_schedule_policy`].
#[derive(Clone)]
pub struct SchedulePolicyHandle {
    inner: Rc<RefCell<Box<dyn SchedulePolicy>>>,
}

impl SchedulePolicyHandle {
    /// Wraps a policy for installation.
    pub fn new(policy: impl SchedulePolicy + 'static) -> Self {
        SchedulePolicyHandle {
            inner: Rc::new(RefCell::new(Box::new(policy))),
        }
    }

    fn choose_event(&self, now: SimTime, candidates: &[ScheduleChoice]) -> usize {
        self.inner.borrow_mut().choose_event(now, candidates)
    }

    fn choose_value(&self, tag: &str, n: usize) -> usize {
        self.inner.borrow_mut().choose_value(tag, n)
    }
}

impl std::fmt::Debug for SchedulePolicyHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SchedulePolicyHandle(..)")
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ParkState {
    /// Running or scheduled to run; not waiting for an unpark.
    Running,
    /// An unpark arrived while running; the next `park()` returns at once.
    Notified,
    /// Blocked in `park()`, no resume scheduled yet.
    Parked,
    /// Blocked in `park()` with a resume event already queued.
    ParkedScheduled,
}

/// Why a run ended: what the thread that found out tells the driver.
enum End {
    /// No live event is left.
    Drained,
    /// A live event is waiting but the event budget is spent.
    BudgetHit,
    /// A simulated thread's closure, the sampler or the schedule policy
    /// panicked; `run` re-raises this message.
    Panicked(String),
}

struct ThreadSlot {
    name: String,
    daemon: bool,
    context: Rc<Context>,
    park: ParkState,
    /// Set by the thread when its closure is done, or by `shutdown_all`
    /// before it resumes the thread one last time: a context that finds
    /// itself resumed with this set unwinds instead of carrying on.
    exited: bool,
    /// Bumped on every `park`/`park_until` entry; a queued timer event
    /// whose epoch does not match is stale and is skipped by `step()`.
    park_epoch: u64,
    /// Set by `step()` when the thread is resumed by its own timer
    /// (deadline reached) rather than by an `unpark`.
    timed_out: bool,
}

/// Sentinel epoch marking an ordinary (non-timer) event in the queue.
const NORMAL_EVENT: u64 = u64::MAX;

#[derive(PartialEq, Eq)]
struct EventKey {
    time: SimTime,
    seq: u64,
}

impl Ord for EventKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl PartialOrd for EventKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

struct State {
    next_seq: u64,
    queue: BinaryHeap<Reverse<(EventKey, ThreadId, u64)>>,
    /// Indexed by `ThreadId`, which is handed out sequentially.
    threads: Vec<ThreadSlot>,
    /// The one-entry slot for why the run ended: filled by the thread that
    /// found out just before it switches to the driver, emptied by the
    /// driver.
    ended: Option<End>,
    /// The context inside [`Engine::run`] (or the engine's `Drop`): where a
    /// thread that found the end, or was shut down, switches to.
    driver: Option<Rc<Context>>,
    events_processed: u64,
    /// When present, every accepted scheduling decision is appended here
    /// (pure bookkeeping: recording never schedules, parks, or advances,
    /// so it cannot perturb the run it observes).
    schedule: Option<Rc<RefCell<ScheduleLog>>>,
    /// When present, same-instant event ties and `SimCtx::choose` calls
    /// are routed through this policy instead of the fixed heap order.
    policy: Option<SchedulePolicyHandle>,
    /// Taken out by `step()` while its callback runs, so that the callback
    /// runs with this state unborrowed.
    sampler: Option<Sampler>,
}

impl State {
    fn slot(&self, tid: ThreadId) -> Option<&ThreadSlot> {
        self.threads.get(usize::try_from(tid.0).ok()?)
    }

    fn slot_mut(&mut self, tid: ThreadId) -> Option<&mut ThreadSlot> {
        self.threads.get_mut(usize::try_from(tid.0).ok()?)
    }

    /// Where to switch when the run is over, or after being shut down.
    fn driver(&self) -> Rc<Context> {
        Rc::clone(self.driver.as_ref().expect("only a driver resumes threads"))
    }

    fn schedule(&mut self, at: SimTime, tid: ThreadId) {
        let key = EventKey {
            time: at,
            seq: self.next_seq,
        };
        self.next_seq += 1;
        self.queue.push(Reverse((key, tid, NORMAL_EVENT)));
    }

    /// Schedules a park-timeout event for `tid`. The event only fires if the
    /// thread is still parked in the same `park_until` call (identified by
    /// `epoch`) when it is popped; otherwise `step()` discards it without
    /// touching the clock or the event counter.
    fn schedule_timer(&mut self, at: SimTime, tid: ThreadId, epoch: u64) {
        debug_assert_ne!(epoch, NORMAL_EVENT);
        let key = EventKey {
            time: at,
            seq: self.next_seq,
        };
        self.next_seq += 1;
        self.queue.push(Reverse((key, tid, epoch)));
    }

    /// Whether a popped timer event is still live: the thread must be
    /// parked in the same `park_until` call that queued it.
    fn timer_valid(&self, tid: ThreadId, epoch: u64) -> bool {
        self.slot(tid)
            .is_some_and(|s| !s.exited && s.park_epoch == epoch && s.park == ParkState::Parked)
    }

    /// Accepts an event: advances the clock, counts it, and records it to
    /// the schedule log if recording is on. The single point every
    /// scheduling decision — default or policy-picked — flows through.
    fn accept(&mut self, clock: &Cell<SimTime>, time: SimTime, tid: ThreadId) {
        self.events_processed += 1;
        clock.set(time);
        if self.schedule.is_some() {
            let label = format!(
                "t={} {}",
                time.as_nanos(),
                self.slot(tid).map(|s| s.name.as_str()).unwrap_or("?")
            );
            if let Some(log) = &self.schedule {
                log.borrow_mut().push(tid.0, label);
            }
        }
    }
}

/// The policy scheduling path: collects the full frontier (every event
/// pending at the earliest instant, stale timers discarded), asks the
/// policy which candidate runs, re-queues the rest with their original
/// keys (they are re-validated when the next frontier is built), and
/// accepts the chosen event exactly as the default path would.
fn pick_with_policy(
    st: &mut State,
    clock: &Cell<SimTime>,
    policy: &SchedulePolicyHandle,
) -> Option<(SimTime, ThreadId)> {
    // Find the first live event; its time defines the frontier.
    let mut frontier: Vec<(EventKey, ThreadId, u64)> = Vec::new();
    let time = loop {
        let Reverse((key, tid, epoch)) = st.queue.pop()?;
        if epoch != NORMAL_EVENT && !st.timer_valid(tid, epoch) {
            continue;
        }
        let t = key.time;
        frontier.push((key, tid, epoch));
        break t;
    };
    // Gather every other live event at the same instant. Candidates come
    // off the min-heap in ascending sequence order, so index 0 is exactly
    // what the default path would have popped.
    while let Some(Reverse((key, _, _))) = st.queue.peek() {
        if key.time != time {
            break;
        }
        let Reverse((key, tid, epoch)) = st.queue.pop().expect("peeked entry exists");
        if epoch != NORMAL_EVENT && !st.timer_valid(tid, epoch) {
            continue;
        }
        frontier.push((key, tid, epoch));
    }
    let candidates: Vec<ScheduleChoice> = frontier
        .iter()
        .map(|(_, tid, epoch)| ScheduleChoice {
            tid: *tid,
            name: st
                .slot(*tid)
                .map(|s| s.name.clone())
                .unwrap_or_else(|| "?".to_string()),
            is_timer: *epoch != NORMAL_EVENT,
        })
        .collect();
    let chosen = policy
        .choose_event(time, &candidates)
        .min(frontier.len() - 1);
    let mut picked = None;
    for (i, (key, tid, epoch)) in frontier.into_iter().enumerate() {
        if i == chosen {
            picked = Some((tid, epoch));
        } else {
            st.queue.push(Reverse((key, tid, epoch)));
        }
    }
    let (tid, epoch) = picked.expect("chosen index within frontier");
    if epoch != NORMAL_EVENT {
        if let Some(slot) = st.slot_mut(tid) {
            slot.timed_out = true;
        }
    }
    st.accept(clock, time, tid);
    Some((time, tid))
}

/// The default scheduling path: pops the earliest live event in
/// `(time, seq)` order and accepts it.
fn pick_default(st: &mut State, clock: &Cell<SimTime>) -> Option<(SimTime, ThreadId)> {
    loop {
        let Reverse((key, tid, epoch)) = st.queue.pop()?;
        if epoch != NORMAL_EVENT {
            // Park-timeout event: only valid if the thread is still parked
            // in the same park_until call. Stale timers are discarded
            // *before* the clock/event counter update so runs that never
            // time out are indistinguishable from runs without timers.
            if !st.timer_valid(tid, epoch) {
                continue;
            }
            if let Some(slot) = st.slot_mut(tid) {
                slot.timed_out = true;
            }
        }
        st.accept(clock, key.time, tid);
        return Some((key.time, tid));
    }
}

/// A recurring virtual-time sampler installed via [`Engine::set_sampler`].
///
/// The sampler is an *engine-level* callback, not a queued event:
/// `step()` invokes it between accepting an event and resuming the chosen
/// thread, once for every window boundary at or before the accepted
/// instant, on whichever context holds the baton. Because it adds nothing
/// to the event queue, touches no timers, and runs while no simulated code
/// does, an installed sampler is schedule-invisible — runs with and without
/// one are byte-identical (enforced by test).
struct Sampler {
    period: SimDuration,
    next_boundary: SimTime,
    callback: Box<dyn FnMut(SimTime)>,
}

struct Shared {
    state: RefCell<State>,
    /// The virtual clock. This and the two flags below are read without
    /// borrowing the state; see "Borrowing" in the module docs.
    clock: Cell<SimTime>,
    /// Whether `State::policy` is set.
    has_policy: Cell<bool>,
    /// Set by `shutdown_all`: a context resumed from now on may have been
    /// resumed to unwind, and looks at its slot to find out.
    shutdown: Cell<bool>,
    event_budget: u64,
}

impl Shared {
    fn now(&self) -> SimTime {
        self.clock.get()
    }

    /// Whether `tid` was resumed to unwind, not to carry on.
    fn shut_down(&self, tid: ThreadId) -> bool {
        let exited = |st: &State| st.slot(tid).expect("own slot missing").exited;
        self.shutdown.get() && exited(&self.state.borrow())
    }
}

/// The discrete-event simulation engine. See the crate-level docs for
/// the execution model.
///
/// # Examples
///
/// ```
/// use dex_sim::{Engine, SimDuration, SimTime};
/// use std::cell::Cell;
/// use std::rc::Rc;
///
/// let engine = Engine::new();
/// let hits = Rc::new(Cell::new(0));
/// for i in 0..4 {
///     let hits = Rc::clone(&hits);
///     engine.spawn(format!("worker-{i}"), move |ctx| {
///         ctx.advance(SimDuration::from_micros(i + 1));
///         hits.set(hits.get() + 1);
///     });
/// }
/// let end = engine.run().expect("no deadlock");
/// assert_eq!(hits.get(), 4);
/// assert_eq!(end, SimTime::ZERO + SimDuration::from_micros(4));
/// ```
///
/// An engine stays on the OS thread that built it:
///
/// ```compile_fail,E0277
/// let engine = dex_sim::Engine::new();
/// std::thread::spawn(move || engine.run());
/// ```
pub struct Engine {
    shared: Rc<Shared>,
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

impl Engine {
    /// Creates an engine with an effectively unlimited event budget.
    pub fn new() -> Self {
        Self::with_event_budget(u64::MAX)
    }

    /// Creates an engine that aborts with
    /// [`SimError::EventBudgetExhausted`] after processing `budget` events —
    /// a guard against livelocked simulations.
    pub fn with_event_budget(budget: u64) -> Self {
        Engine {
            shared: Rc::new(Shared {
                state: RefCell::new(State {
                    next_seq: 0,
                    queue: BinaryHeap::new(),
                    threads: Vec::new(),
                    ended: None,
                    driver: None,
                    events_processed: 0,
                    schedule: None,
                    policy: None,
                    sampler: None,
                }),
                clock: Cell::new(SimTime::ZERO),
                has_policy: Cell::new(false),
                shutdown: Cell::new(false),
                event_budget: budget,
            }),
        }
    }

    /// Turns on schedule recording: every scheduling decision the engine
    /// accepts (which thread ran, at what virtual time) is appended to
    /// the returned [`ScheduleLog`]. Read it after [`Engine::run`]
    /// finishes.
    ///
    /// Recording is pure observation — it adds no events, timers, or
    /// wakeups — so a recorded run takes exactly the same schedule as an
    /// unrecorded one. This is the substrate of the observability
    /// layer's bit-identity guarantee: two runs are the same run iff
    /// their recorded logs are byte-identical.
    pub fn record_schedule(&self, header: impl Into<String>) -> Rc<RefCell<ScheduleLog>> {
        let log = Rc::new(RefCell::new(ScheduleLog::new(header)));
        self.shared.state.borrow_mut().schedule = Some(Rc::clone(&log));
        log
    }

    /// Installs a [`SchedulePolicy`]: every same-instant event tie (and
    /// every [`SimCtx::choose`] call) is resolved by the policy instead of
    /// the fixed `(time, seq)` heap order. With no policy installed — or
    /// with [`DefaultSchedulePolicy`] — the engine produces byte-identical
    /// schedules to builds that predate the hook.
    pub fn set_schedule_policy(&self, policy: SchedulePolicyHandle) {
        self.shared.state.borrow_mut().policy = Some(policy);
        self.shared.has_policy.set(true);
    }

    /// Installs a recurring virtual-time sampler: `callback` is invoked
    /// with each window boundary `period, 2*period, 3*period, …` as the
    /// simulation clock crosses it. Windows are half-open `[k*period,
    /// (k+1)*period)` — an event at exactly the boundary belongs to the
    /// *next* window, so the callback for boundary `b` observes precisely
    /// the events that happened strictly before `b`.
    ///
    /// The callback always runs on the OS thread that called `run()`, on
    /// whichever context holds the baton: `run()`'s own stack for the first
    /// event, afterwards a simulated thread's 512 KiB stack, so it must not
    /// recurse deeply. Thread-locals it sees are the `run()` caller's, the
    /// same ones every simulated thread sees. No simulated
    /// code is running and the engine's scheduling state is unborrowed: it
    /// may read any shared simulation data, but it cannot advance time,
    /// park, send, or spawn. Like schedule recording, sampling is pure
    /// observation — it adds no events and is byte-identical to a run
    /// without a sampler (enforced by test).
    ///
    /// Virtual instants with no events are never sampled on their own:
    /// boundaries fire lazily when the clock next moves past them, and
    /// any boundaries still pending when the queue drains are left to the
    /// caller (see [`Engine::run`]'s return value for the final clock).
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn set_sampler<F>(&self, period: SimDuration, callback: F)
    where
        F: FnMut(SimTime) + 'static,
    {
        assert!(!period.is_zero(), "sampler period must be positive");
        self.shared.state.borrow_mut().sampler = Some(Sampler {
            period,
            next_boundary: SimTime::ZERO + period,
            callback: Box::new(callback),
        });
    }

    /// Spawns a non-daemon simulated thread that first runs at the current
    /// virtual time. The engine reports a deadlock if it can never finish.
    pub fn spawn<F>(&self, name: impl Into<String>, f: F) -> ThreadId
    where
        F: FnOnce(&SimCtx) + 'static,
    {
        spawn_thread(&self.shared, name.into(), false, f)
    }

    /// Spawns a *daemon* thread: an infrastructure loop (e.g. a message
    /// handler) that the engine silently shuts down once the event queue
    /// drains.
    pub fn spawn_daemon<F>(&self, name: impl Into<String>, f: F) -> ThreadId
    where
        F: FnOnce(&SimCtx) + 'static,
    {
        spawn_thread(&self.shared, name.into(), true, f)
    }

    /// Runs the simulation to completion.
    ///
    /// Returns the final virtual time.
    ///
    /// # Errors
    ///
    /// * [`SimError::Deadlock`] if non-daemon threads remain parked when no
    ///   events are left.
    /// * [`SimError::EventBudgetExhausted`] if the event budget runs out.
    ///
    /// # Panics
    ///
    /// Re-raises any panic from a simulated thread (so `assert!` inside
    /// simulated code fails the enclosing test), and any panic from the
    /// sampler or the schedule policy under its own message.
    pub fn run(self) -> Result<SimTime, SimError> {
        let shared = &*self.shared;
        let driver = Context::current();
        let mut st = shared.state.borrow_mut();
        st.driver = Some(Rc::clone(&driver));
        // Pick the first event and switch to its thread; the baton travels
        // between the simulated threads until one finds the end and
        // switches back. With nothing to run, or a callback that panics at
        // once, the driver has found the end itself and stays where it is.
        let first = pass_baton(shared, st, None).expect("the driver has no event of its own");
        if !Rc::ptr_eq(&first, &driver) {
            context::switch_to(first);
        }
        let end = shared.state.borrow_mut().ended.take();
        let end = end.expect("the driver is resumed with a reason");

        // The run is over. Shut down every thread that is still alive; the
        // non-daemon ones are deadlocked unless we are aborting for another
        // reason.
        let (mut deadlocked, late_panic) = shutdown_all(shared);
        match (end, late_panic) {
            (End::Panicked(msg), _) | (_, Some(msg)) => panic!("{msg}"),
            (End::BudgetHit, _) => Err(SimError::EventBudgetExhausted {
                budget: shared.event_budget,
            }),
            (End::Drained, _) if !deadlocked.is_empty() => {
                deadlocked.sort();
                Err(SimError::Deadlock { parked: deadlocked })
            }
            (End::Drained, _) => Ok(shared.now()),
        }
    }
}

/// An engine dropped without [`Engine::run`] still owns one context per
/// spawned simulated thread, each holding its closure, which keeps `Shared`
/// alive; shut them down so the closures are dropped. A no-op after `run`.
impl Drop for Engine {
    fn drop(&mut self) {
        shutdown_all(&self.shared);
    }
}

/// One scheduling step: picks the next event (default order, or the
/// installed policy's choice among same-instant ties), accepts it, fires
/// the sampler, and marks the chosen thread running. Everything the engine
/// decides between one thread's turn and the next is in here, and whoever
/// holds the baton calls it, handing over the borrow it holds: the `RefMut`
/// ends in here, so that none is alive when the caller switches. `Ok` is the
/// context to switch to, `None` when the next event is `me`'s own; `Err`
/// says why there is no next thread.
fn step<'a>(
    shared: &'a Shared,
    mut st: RefMut<'a, State>,
    me: Option<ThreadId>,
) -> Result<Option<Rc<Context>>, End> {
    loop {
        // The budget only fires when a live event is waiting: a run that
        // finishes on its last budgeted event has drained.
        while let Some(&Reverse((_, tid, epoch))) = st.queue.peek() {
            if epoch == NORMAL_EVENT || st.timer_valid(tid, epoch) {
                break;
            }
            st.queue.pop();
        }
        if st.queue.is_empty() {
            return Err(End::Drained);
        }
        if st.events_processed >= shared.event_budget {
            return Err(End::BudgetHit);
        }
        let (time, tid) = match st.policy.clone() {
            Some(policy) => pick_with_policy(&mut st, &shared.clock, &policy),
            None => pick_default(&mut st, &shared.clock),
        }
        .expect("a live event is queued");

        // Fire the sampler for every window boundary the clock just
        // crossed, *before* the chosen thread runs: the event at `time`
        // belongs to the window starting at the boundary, so a callback at
        // boundary `b` sees exactly the state produced by events strictly
        // before `b`. The state borrow is released around the callbacks.
        if st.sampler.as_ref().is_some_and(|s| s.next_boundary <= time) {
            let mut s = st.sampler.take().expect("just seen");
            drop(st);
            while s.next_boundary <= time {
                let boundary = s.next_boundary;
                s.next_boundary = boundary + s.period;
                (s.callback)(boundary);
            }
            st = shared.state.borrow_mut();
            st.sampler = Some(s);
        }

        let slot = st.slot_mut(tid).expect("event for unknown thread");
        if slot.exited {
            continue;
        }
        // A parked thread is running again; an unpark token delivered while
        // it was not parked (`Notified`) stays for its next `park()`.
        if matches!(slot.park, ParkState::Parked | ParkState::ParkedScheduled) {
            slot.park = ParkState::Running;
        }
        return Ok((Some(tid) != me).then(|| Rc::clone(&slot.context)));
    }
}

/// Holding the baton: runs one `step()` under the caller's borrow and returns
/// the context to switch to — the next thread's, or the driver's with the
/// reason the run ended left for it. `None` when the next event is `me`'s
/// own. A panic in a callback ends the run under its own message, whichever
/// context it happened on; the borrow it unwound through is gone by then.
fn pass_baton<'a>(
    shared: &'a Shared,
    st: RefMut<'a, State>,
    me: Option<ThreadId>,
) -> Option<Rc<Context>> {
    let end = match panic::catch_unwind(AssertUnwindSafe(|| step(shared, st, me))) {
        Ok(Ok(next)) => return next,
        Ok(Err(end)) => end,
        Err(payload) => End::Panicked(panic_message(&*payload)),
    };
    Some(end_run(&mut shared.state.borrow_mut(), end))
}

/// Leaves `end` for the driver and returns the driver's context.
fn end_run(st: &mut State, end: End) -> Rc<Context> {
    st.ended = Some(end);
    st.driver()
}

pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Shuts down every simulated thread that has not exited, one at a time in
/// id order: marks it exited and switches to it; it unwinds to its entry
/// function — or, never started, drops its closure unrun — and switches
/// back. Returns the names of the non-daemon threads that were still alive
/// and the first panic raised while unwinding.
fn shutdown_all(shared: &Shared) -> (Vec<String>, Option<String>) {
    let mut stuck = Vec::new();
    let mut panic_msg = None;
    // The caller is the driver: `run`, which has said so already, or the
    // `Drop` of an engine never run.
    shared.state.borrow_mut().driver = Some(Context::current());
    shared.shutdown.set(true);
    for i in 0.. {
        let context = {
            let mut st = shared.state.borrow_mut();
            let Some(slot) = st.threads.get_mut(i) else {
                break;
            };
            if std::mem::replace(&mut slot.exited, true) {
                continue;
            }
            if !slot.daemon {
                stuck.push(slot.name.clone());
            }
            Rc::clone(&slot.context)
        };
        context::switch_to(context);
        if let Some(End::Panicked(msg)) = shared.state.borrow_mut().ended.take() {
            panic_msg.get_or_insert(msg);
        }
    }
    (stuck, panic_msg)
}

fn spawn_thread<F>(shared: &Rc<Shared>, name: String, daemon: bool, f: F) -> ThreadId
where
    F: FnOnce(&SimCtx) + 'static,
{
    let mut st = shared.state.borrow_mut();
    let tid = ThreadId(st.threads.len() as u64);
    let ctx = SimCtx {
        tid,
        shared: Rc::clone(shared),
    };
    // The context starts when `step()` first picks its event, or when it is
    // shut down before that. It returns the context to run after it, having
    // dropped `ctx` and everything else it owns: the switch away from a
    // finished context never returns.
    let context = Context::new(Box::new(move || {
        if ctx.shared.shut_down(tid) {
            // Shut down before it ever ran: `f` is dropped unrun and there
            // is nothing to report.
            return ctx.shared.state.borrow().driver();
        }
        let panicked = match panic::catch_unwind(AssertUnwindSafe(|| f(&ctx))) {
            Err(payload) if !payload.is::<ShutdownToken>() => Some(panic_message(&*payload)),
            _ => None,
        };
        let mut st = ctx.shared.state.borrow_mut();
        let slot = st.slot_mut(tid).expect("own slot missing");
        // Already marked exited: the driver shut this thread down and is
        // waiting for it, so the baton is not this thread's to pass.
        let shut_down = std::mem::replace(&mut slot.exited, true);
        if let Some(msg) = panicked {
            let msg = format!("simulated thread '{}#{}' panicked: {msg}", slot.name, tid.0);
            return end_run(&mut st, End::Panicked(msg));
        }
        if shut_down {
            return st.driver();
        }
        pass_baton(&ctx.shared, st, None).expect("an exited thread has no event of its own")
    }));
    st.threads.push(ThreadSlot {
        name,
        daemon,
        context,
        park: ParkState::Running,
        exited: false,
        park_epoch: 0,
        timed_out: false,
    });
    // First run at the current virtual instant.
    st.schedule(shared.now(), tid);
    tid
}

/// Handle through which a simulated thread interacts with virtual time and
/// other simulated threads. Each thread receives a `&SimCtx` for its whole
/// lifetime; like the engine, it is neither `Send` nor `Sync`.
pub struct SimCtx {
    tid: ThreadId,
    shared: Rc<Shared>,
}

impl SimCtx {
    /// The identifier of this simulated thread.
    pub fn id(&self) -> ThreadId {
        self.tid
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.shared.now()
    }

    /// Number of events the engine has processed so far (a monotone,
    /// deterministic activity measure).
    pub fn events_processed(&self) -> u64 {
        self.shared.state.borrow().events_processed
    }

    /// Resolves an `n`-way nondeterministic value choice through the
    /// installed [`SchedulePolicy`] (`tag` names the choice site, e.g.
    /// `"fabric.recv"`). Returns `0` — the canonical deterministic pick —
    /// when no policy is installed or `n <= 1`. Never touches the
    /// schedule log or the event queue, so calling it is pure observation
    /// under the default policy.
    pub fn choose(&self, tag: &str, n: usize) -> usize {
        if n <= 1 || !self.has_schedule_policy() {
            return 0;
        }
        let policy = self.shared.state.borrow().policy.clone();
        match policy {
            Some(p) => p.choose_value(tag, n).min(n - 1),
            None => 0,
        }
    }

    /// `true` when a [`SchedulePolicy`] is installed (exploration mode).
    /// Lets hot paths skip building candidate sets for [`SimCtx::choose`]
    /// when nobody is listening.
    pub fn has_schedule_policy(&self) -> bool {
        self.shared.has_policy.get()
    }

    /// Advances this thread's virtual time by `d`, letting other threads run
    /// in the meantime. `advance(ZERO)` yields the (virtual) CPU without
    /// moving the clock.
    pub fn advance(&self, d: SimDuration) {
        let mut st = self.shared.state.borrow_mut();
        st.schedule(self.now() + d, self.tid);
        self.yield_and_wait(st);
    }

    /// Advances this thread to the absolute instant `t` (no-op if `t` is in
    /// the past).
    pub fn sleep_until(&self, t: SimTime) {
        let now = self.now();
        self.advance(t.saturating_since(now));
    }

    /// Blocks this thread until another thread calls [`SimCtx::unpark`] with
    /// its id. If an unpark was already delivered since the last `park`,
    /// returns immediately (token semantics, like [`std::thread::park`]).
    pub fn park(&self) {
        let mut st = self.shared.state.borrow_mut();
        let slot = st.slot_mut(self.tid).expect("own slot missing");
        slot.park_epoch += 1; // invalidate timers from earlier park_untils
        match slot.park {
            ParkState::Notified => {
                slot.park = ParkState::Running;
                return;
            }
            ParkState::Running => slot.park = ParkState::Parked,
            ParkState::Parked | ParkState::ParkedScheduled => {
                unreachable!("thread parked while already parked")
            }
        }
        self.yield_and_wait(st);
    }

    /// Like [`SimCtx::park`], but with a deadline: blocks until another
    /// thread calls [`SimCtx::unpark`] **or** virtual time reaches
    /// `deadline`, whichever comes first.
    ///
    /// Returns `true` if the deadline fired (timeout) and `false` if the
    /// thread was woken by an unpark. A pending unpark token makes it return
    /// `false` immediately, mirroring `park`'s token semantics. A deadline
    /// at or before the current instant still yields to the scheduler once
    /// before timing out.
    ///
    /// Timer events for parks that were resolved by an unpark are discarded
    /// without advancing the clock or the event counter, so code that never
    /// actually times out produces exactly the same schedule as code using
    /// plain `park`.
    pub fn park_until(&self, deadline: SimTime) -> bool {
        let mut st = self.shared.state.borrow_mut();
        let slot = st.slot_mut(self.tid).expect("own slot missing");
        slot.park_epoch += 1;
        slot.timed_out = false;
        match slot.park {
            ParkState::Notified => {
                slot.park = ParkState::Running;
                return false;
            }
            ParkState::Running => slot.park = ParkState::Parked,
            ParkState::Parked | ParkState::ParkedScheduled => {
                unreachable!("thread parked while already parked")
            }
        }
        let epoch = slot.park_epoch;
        st.schedule_timer(deadline.max(self.now()), self.tid, epoch);
        self.yield_and_wait(st);
        let mut st = self.shared.state.borrow_mut();
        let slot = st.slot_mut(self.tid).expect("own slot missing");
        std::mem::take(&mut slot.timed_out)
    }

    /// Wakes the thread `target`. If it is parked, it resumes at the current
    /// virtual time; otherwise its next `park()` returns immediately.
    pub fn unpark(&self, target: ThreadId) {
        let mut st = self.shared.state.borrow_mut();
        let Some(slot) = st.slot_mut(target) else {
            return;
        };
        if slot.exited {
            return;
        }
        match slot.park {
            ParkState::Running => slot.park = ParkState::Notified,
            ParkState::Notified | ParkState::ParkedScheduled => {}
            ParkState::Parked => {
                slot.park = ParkState::ParkedScheduled;
                st.schedule(self.now(), target);
            }
        }
    }

    /// Spawns a new non-daemon simulated thread starting at the current
    /// virtual time.
    pub fn spawn<F>(&self, name: impl Into<String>, f: F) -> ThreadId
    where
        F: FnOnce(&SimCtx) + 'static,
    {
        spawn_thread(&self.shared, name.into(), false, f)
    }

    /// Spawns a daemon (infrastructure) thread; see [`Engine::spawn_daemon`].
    pub fn spawn_daemon<F>(&self, name: impl Into<String>, f: F) -> ThreadId
    where
        F: FnOnce(&SimCtx) + 'static,
    {
        spawn_thread(&self.shared, name.into(), true, f)
    }

    /// The end of this thread's turn: passes the baton under the borrow the
    /// caller took for its own bookkeeping, and — unless its own event was
    /// next — is suspended until this thread is resumed or shut down.
    fn yield_and_wait(&self, st: RefMut<'_, State>) {
        if let Some(next) = pass_baton(&self.shared, st, Some(self.tid)) {
            context::switch_to(next);
            // Resumed: to carry on, or — slot marked `exited` — to unwind.
            if self.shared.shut_down(self.tid) {
                panic::resume_unwind(Box::new(ShutdownToken));
            }
        }
    }
}

impl std::fmt::Debug for SimCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimCtx").field("tid", &self.tid).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_engine_finishes_at_zero() {
        let engine = Engine::new();
        assert_eq!(engine.run().unwrap(), SimTime::ZERO);
    }

    #[test]
    fn single_thread_advances_clock() {
        let engine = Engine::new();
        engine.spawn("t", |ctx| {
            assert_eq!(ctx.now(), SimTime::ZERO);
            ctx.advance(SimDuration::from_micros(5));
            assert_eq!(ctx.now(), SimTime::from_nanos(5_000));
        });
        assert_eq!(engine.run().unwrap(), SimTime::from_nanos(5_000));
    }

    #[test]
    fn threads_interleave_in_time_order() {
        let engine = Engine::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        for (name, delay) in [("late", 30u64), ("early", 10), ("mid", 20)] {
            let log = Rc::clone(&log);
            engine.spawn(name, move |ctx| {
                ctx.advance(SimDuration::from_nanos(delay));
                log.borrow_mut().push(name);
            });
        }
        engine.run().unwrap();
        assert_eq!(*log.borrow_mut(), vec!["early", "mid", "late"]);
    }

    #[test]
    fn spawned_closures_share_state_through_rc_and_refcell() {
        let engine = Engine::new();
        let inbox = Rc::new(RefCell::new(Vec::new()));
        let senders = Rc::new(Cell::new(0));
        let (out, live) = (Rc::clone(&inbox), Rc::clone(&senders));
        engine.spawn("parent", move |ctx| {
            for i in 0..3u64 {
                let (out, live) = (Rc::clone(&out), Rc::clone(&live));
                live.set(live.get() + 1);
                ctx.spawn(format!("child{i}"), move |ctx| {
                    ctx.advance(SimDuration::from_nanos(10 - i));
                    out.borrow_mut().push((i, ctx.now().as_nanos()));
                    live.set(live.get() - 1);
                });
            }
        });
        engine.run().unwrap();
        assert_eq!(*inbox.borrow(), vec![(2, 8), (1, 9), (0, 10)]);
        assert_eq!((senders.get(), Rc::strong_count(&inbox)), (0, 1));
    }

    #[test]
    fn a_state_borrow_held_into_a_switch_panics_where_it_was_kept() {
        let engine = Engine::new();
        let shared = Rc::downgrade(&engine.shared);
        engine.spawn("keeper", move |ctx| {
            let shared = shared.upgrade().expect("the engine is running");
            let _kept = shared.state.borrow();
            ctx.advance(SimDuration::from_nanos(1));
        });
        let msg = run_panics(engine);
        assert!(
            msg.starts_with("simulated thread 'keeper#0' panicked: "),
            "{msg}"
        );
        assert!(msg.contains("already"), "{msg}");
    }

    #[test]
    fn same_time_events_run_in_schedule_order() {
        let engine = Engine::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        for i in 0..8 {
            let log = Rc::clone(&log);
            engine.spawn(format!("t{i}"), move |ctx| {
                ctx.advance(SimDuration::from_nanos(7));
                log.borrow_mut().push(i);
            });
        }
        engine.run().unwrap();
        assert_eq!(*log.borrow_mut(), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn park_unpark_roundtrip() {
        let engine = Engine::new();
        let waiter_tid = Rc::new(RefCell::new(None));
        let order = Rc::new(RefCell::new(Vec::new()));
        {
            let waiter_tid = Rc::clone(&waiter_tid);
            let order = Rc::clone(&order);
            let tid_holder = Rc::clone(&waiter_tid);
            engine.spawn("waiter", move |ctx| {
                *tid_holder.borrow_mut() = Some(ctx.id());
                order.borrow_mut().push("waiting");
                ctx.park();
                order.borrow_mut().push("woken");
            });
        }
        {
            let waiter_tid = Rc::clone(&waiter_tid);
            let order = Rc::clone(&order);
            engine.spawn("waker", move |ctx| {
                ctx.advance(SimDuration::from_micros(1));
                order.borrow_mut().push("waking");
                let tid = waiter_tid.borrow_mut().unwrap();
                ctx.unpark(tid);
            });
        }
        engine.run().unwrap();
        assert_eq!(*order.borrow_mut(), vec!["waiting", "waking", "woken"]);
    }

    #[test]
    fn unpark_before_park_is_not_lost() {
        let engine = Engine::new();
        engine.spawn("self-notify", |ctx| {
            // Unpark self while running: next park returns immediately.
            ctx.unpark(ctx.id());
            ctx.park();
            // A second park would block forever, proving the token was
            // consumed; we don't test that here (it would deadlock).
        });
        engine.run().unwrap();
    }

    #[test]
    fn deadlock_is_reported_with_thread_name() {
        let engine = Engine::new();
        engine.spawn("stuck-thread", |ctx| {
            ctx.park();
        });
        match engine.run() {
            Err(SimError::Deadlock { parked }) => {
                assert_eq!(parked, vec!["stuck-thread".to_string()])
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn daemon_threads_do_not_deadlock() {
        let engine = Engine::new();
        let ran = Rc::new(Cell::new(0));
        {
            let ran = Rc::clone(&ran);
            engine.spawn_daemon("handler-loop", move |ctx| {
                ran.set(ran.get() + 1);
                loop {
                    ctx.park(); // shut down by the engine at drain
                }
            });
        }
        engine.spawn("work", |ctx| ctx.advance(SimDuration::from_micros(2)));
        let end = engine.run().unwrap();
        assert_eq!(end, SimTime::from_nanos(2_000));
        assert_eq!(ran.get(), 1);
    }

    #[test]
    fn spawn_from_sim_thread_starts_at_now() {
        let engine = Engine::new();
        let seen = Rc::new(RefCell::new(Vec::new()));
        {
            let seen = Rc::clone(&seen);
            engine.spawn("parent", move |ctx| {
                ctx.advance(SimDuration::from_micros(3));
                let seen2 = Rc::clone(&seen);
                ctx.spawn("child", move |ctx| {
                    seen2.borrow_mut().push(ctx.now());
                });
                ctx.advance(SimDuration::from_micros(1));
                seen.borrow_mut().push(ctx.now());
            });
        }
        engine.run().unwrap();
        assert_eq!(
            *seen.borrow_mut(),
            vec![SimTime::from_nanos(3_000), SimTime::from_nanos(4_000)]
        );
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn panic_in_sim_thread_propagates() {
        let engine = Engine::new();
        engine.spawn("bomber", |_ctx| panic!("boom"));
        let _ = engine.run();
    }

    #[test]
    fn event_budget_detects_livelock() {
        let engine = Engine::with_event_budget(100);
        engine.spawn("spinner", |ctx| loop {
            ctx.advance(SimDuration::ZERO);
        });
        match engine.run() {
            Err(SimError::EventBudgetExhausted { budget }) => assert_eq!(budget, 100),
            other => panic!("expected budget exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn determinism_same_run_same_trace() {
        fn run_once() -> Vec<(u64, u64)> {
            let engine = Engine::new();
            let log = Rc::new(RefCell::new(Vec::new()));
            for i in 0..10u64 {
                let log = Rc::clone(&log);
                engine.spawn(format!("t{i}"), move |ctx| {
                    for k in 0..5 {
                        ctx.advance(SimDuration::from_nanos((i * 7 + k * 13) % 29 + 1));
                        log.borrow_mut().push((i, ctx.now().as_nanos()));
                    }
                });
            }
            engine.run().unwrap();
            let v = log.borrow_mut().clone();
            v
        }
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn schedule_recording_is_pure_observation() {
        fn run_once(record: bool) -> (SimTime, Option<String>) {
            let engine = Engine::new();
            let log = record.then(|| engine.record_schedule("unit"));
            for i in 0..4u64 {
                engine.spawn(format!("t{i}"), move |ctx| {
                    for k in 0..3 {
                        ctx.advance(SimDuration::from_nanos((i * 11 + k * 5) % 17 + 1));
                    }
                });
            }
            let end = engine.run().unwrap();
            (end, log.map(|l| l.borrow_mut().to_text()))
        }
        let (plain_end, none) = run_once(false);
        let (rec_end, text_a) = run_once(true);
        let (_, text_b) = run_once(true);
        assert!(none.is_none());
        assert_eq!(plain_end, rec_end, "recording must not change the run");
        let text_a = text_a.unwrap();
        assert_eq!(text_a, text_b.unwrap(), "recorded runs are reproducible");
        let log = ScheduleLog::parse(&text_a).unwrap();
        assert!(!log.is_empty());
        assert!(log.steps()[0].label.starts_with("t="));
    }

    fn policy_workload(engine: &Engine) {
        // A mix of same-time spawns (t=0 ties), park/unpark, and a
        // park_until whose timer goes stale — every choice-point class.
        let waiter_tid = Rc::new(RefCell::new(None));
        {
            let waiter_tid = Rc::clone(&waiter_tid);
            engine.spawn("waiter", move |ctx| {
                *waiter_tid.borrow_mut() = Some(ctx.id());
                let timed_out = ctx.park_until(SimTime::from_nanos(90_000));
                assert!(!timed_out);
                ctx.advance(SimDuration::from_nanos(3));
            });
        }
        {
            let waiter_tid = Rc::clone(&waiter_tid);
            engine.spawn("waker", move |ctx| {
                ctx.advance(SimDuration::from_micros(1));
                let tid = waiter_tid.borrow_mut().unwrap();
                ctx.unpark(tid);
            });
        }
        for i in 0..3u64 {
            engine.spawn(format!("t{i}"), move |ctx| {
                for k in 0..4 {
                    ctx.advance(SimDuration::from_nanos((i * 5 + k * 3) % 11 + 1));
                }
            });
        }
    }

    #[test]
    fn default_policy_is_byte_identical_to_no_policy() {
        fn run_once(install: bool) -> (SimTime, String) {
            let engine = Engine::new();
            let log = engine.record_schedule("policy-identity");
            if install {
                engine.set_schedule_policy(SchedulePolicyHandle::new(DefaultSchedulePolicy));
            }
            policy_workload(&engine);
            let end = engine.run().unwrap();
            let text = log.borrow_mut().to_text();
            (end, text)
        }
        let (plain_end, plain_text) = run_once(false);
        let (policy_end, policy_text) = run_once(true);
        assert_eq!(plain_end, policy_end);
        assert_eq!(plain_text, policy_text, "default policy must not perturb");
        assert!(!plain_text.is_empty());
    }

    #[test]
    fn policy_can_flip_same_time_ties() {
        struct LastPick;
        impl SchedulePolicy for LastPick {
            fn choose_event(&mut self, _now: SimTime, candidates: &[ScheduleChoice]) -> usize {
                candidates.len() - 1
            }
        }
        fn run_once(flip: bool) -> Vec<&'static str> {
            let engine = Engine::new();
            if flip {
                engine.set_schedule_policy(SchedulePolicyHandle::new(LastPick));
            }
            let order = Rc::new(RefCell::new(Vec::new()));
            for name in ["a", "b", "c"] {
                let order = Rc::clone(&order);
                // No advance: the t=0 spawn tie alone decides the order.
                engine.spawn(name, move |_ctx| {
                    order.borrow_mut().push(name);
                });
            }
            engine.run().unwrap();
            let v = order.borrow_mut().clone();
            v
        }
        assert_eq!(run_once(false), vec!["a", "b", "c"]);
        assert_eq!(run_once(true), vec!["c", "b", "a"]);
    }

    #[test]
    fn policy_sees_candidate_names_and_timer_flags() {
        struct Spy(Rc<RefCell<Vec<(String, bool)>>>);
        impl SchedulePolicy for Spy {
            fn choose_event(&mut self, _now: SimTime, candidates: &[ScheduleChoice]) -> usize {
                if candidates.len() > 1 {
                    self.0
                        .borrow_mut()
                        .extend(candidates.iter().map(|c| (c.name.clone(), c.is_timer)));
                }
                0
            }
        }
        let engine = Engine::new();
        let seen = Rc::new(RefCell::new(Vec::new()));
        engine.set_schedule_policy(SchedulePolicyHandle::new(Spy(Rc::clone(&seen))));
        engine.spawn("left", |ctx| ctx.advance(SimDuration::from_nanos(1)));
        engine.spawn("right", |ctx| ctx.advance(SimDuration::from_nanos(2)));
        engine.run().unwrap();
        let seen = seen.borrow_mut();
        // The t=0 spawn tie exposes both threads as non-timer candidates.
        assert!(seen.contains(&("left".to_string(), false)), "{seen:?}");
        assert!(seen.contains(&("right".to_string(), false)), "{seen:?}");
    }

    #[test]
    fn choose_routes_through_policy_and_defaults_to_zero() {
        struct PickOne;
        impl SchedulePolicy for PickOne {
            fn choose_value(&mut self, tag: &str, n: usize) -> usize {
                assert_eq!(tag, "test.choice");
                assert_eq!(n, 3);
                1
            }
        }
        let engine = Engine::new();
        let picks = Rc::new(RefCell::new(Vec::new()));
        {
            let picks = Rc::clone(&picks);
            engine.spawn("chooser", move |ctx| {
                picks.borrow_mut().push(ctx.choose("test.choice", 3));
                picks.borrow_mut().push(ctx.choose("test.choice", 1)); // n<=1: no policy call
            });
        }
        engine.set_schedule_policy(SchedulePolicyHandle::new(PickOne));
        engine.run().unwrap();
        assert_eq!(*picks.borrow_mut(), vec![1, 0]);

        let engine = Engine::new();
        let got = Rc::new(RefCell::new(None));
        {
            let got = Rc::clone(&got);
            engine.spawn("no-policy", move |ctx| {
                assert!(!ctx.has_schedule_policy());
                *got.borrow_mut() = Some(ctx.choose("test.choice", 5));
            });
        }
        engine.run().unwrap();
        assert_eq!(*got.borrow_mut(), Some(0));
    }

    #[test]
    fn sampler_fires_at_boundaries_and_sees_prefix_state() {
        // Thread bumps a counter at t = 4, 8, 12, 16, 20 µs. With a 10µs
        // window, boundary 10µs must see the bumps strictly before it
        // (two), and boundary 20µs must NOT see the bump at exactly 20µs
        // (half-open windows: the boundary event is in the next window).
        let engine = Engine::new();
        let counter = Rc::new(Cell::new(0));
        let samples = Rc::new(RefCell::new(Vec::new()));
        {
            let counter = Rc::clone(&counter);
            let samples = Rc::clone(&samples);
            engine.set_sampler(SimDuration::from_micros(10), move |boundary| {
                samples
                    .borrow_mut()
                    .push((boundary.as_nanos(), counter.get()));
            });
        }
        {
            let counter = Rc::clone(&counter);
            engine.spawn("worker", move |ctx| {
                for _ in 0..5 {
                    ctx.advance(SimDuration::from_micros(4));
                    counter.set(counter.get() + 1);
                }
            });
        }
        engine.run().unwrap();
        assert_eq!(*samples.borrow_mut(), vec![(10_000, 2), (20_000, 4)]);
    }

    #[test]
    fn sampler_catches_up_over_idle_gaps() {
        // One event far past several boundaries: every skipped boundary
        // fires, in order, before the event's thread resumes.
        let engine = Engine::new();
        let samples = Rc::new(RefCell::new(Vec::new()));
        {
            let samples = Rc::clone(&samples);
            engine.set_sampler(SimDuration::from_micros(1), move |boundary| {
                samples.borrow_mut().push(boundary.as_nanos());
            });
        }
        engine.spawn("jumper", |ctx| ctx.advance(SimDuration::from_micros(3)));
        engine.run().unwrap();
        // t=0 spawn event fires no boundary; the jump to 3µs fires 1, 2, 3.
        assert_eq!(*samples.borrow_mut(), vec![1_000, 2_000, 3_000]);
    }

    #[test]
    fn sampler_is_schedule_invisible() {
        fn run_once(sample: bool) -> (SimTime, String) {
            let engine = Engine::new();
            let log = engine.record_schedule("sampler-identity");
            if sample {
                engine.set_sampler(SimDuration::from_nanos(7), |_| {});
            }
            policy_workload(&engine);
            let end = engine.run().unwrap();
            let text = log.borrow_mut().to_text();
            (end, text)
        }
        let (plain_end, plain_text) = run_once(false);
        let (sampled_end, sampled_text) = run_once(true);
        assert_eq!(plain_end, sampled_end);
        assert_eq!(
            plain_text, sampled_text,
            "an installed sampler must not perturb the schedule"
        );
        assert!(!plain_text.is_empty());
    }

    /// `advance`, `park`/`unpark`, a `park_until` that times out and one
    /// that does not, and a thread that exits mid-run. Every thread notes
    /// `now()` in `seen` each time it starts or is resumed.
    fn every_way_to_yield(engine: &Engine, seen: &Rc<RefCell<Vec<u64>>>) {
        let note =
            |seen: &RefCell<Vec<u64>>, ctx: &SimCtx| seen.borrow_mut().push(ctx.now().as_nanos());
        let log = Rc::clone(seen);
        let waiter = engine.spawn("waiter", move |ctx| {
            note(&log, ctx);
            ctx.park();
            note(&log, ctx);
            assert!(ctx.park_until(ctx.now() + SimDuration::from_nanos(700)));
            note(&log, ctx);
            assert!(!ctx.park_until(ctx.now() + SimDuration::from_micros(10)));
            note(&log, ctx);
            ctx.advance(SimDuration::from_nanos(3));
            note(&log, ctx);
        });
        let log = Rc::clone(seen);
        engine.spawn("waker", move |ctx| {
            note(&log, ctx);
            for gap in [1_000, 2_000] {
                ctx.advance(SimDuration::from_nanos(gap));
                note(&log, ctx);
                ctx.unpark(waiter);
            }
        });
        let log = Rc::clone(seen);
        engine.spawn("short-lived", move |ctx| {
            note(&log, ctx);
            ctx.advance(SimDuration::from_nanos(500));
            note(&log, ctx);
        });
        let log = Rc::clone(seen);
        engine.spawn("ticker", move |ctx| {
            note(&log, ctx);
            for _ in 0..8 {
                ctx.advance(SimDuration::from_nanos(450));
                note(&log, ctx);
            }
        });
    }

    #[test]
    fn now_is_the_accepted_time_with_or_without_sampler_and_policy() {
        const PERIOD_NS: u64 = 400;
        /// The schedule log, what the threads saw, what the sampler saw.
        type Run = (String, Vec<u64>, Vec<(u64, u64)>);
        fn run_once(sample: bool, policy: bool) -> Run {
            let engine = Engine::new();
            let log = engine.record_schedule("every-way-to-yield");
            let seen = Rc::new(RefCell::new(Vec::new()));
            let samples = Rc::new(RefCell::new(Vec::new()));
            if sample {
                let (seen, samples) = (Rc::clone(&seen), Rc::clone(&samples));
                let shared = Rc::downgrade(&engine.shared);
                engine.set_sampler(SimDuration::from_nanos(PERIOD_NS), move |boundary| {
                    let shared = shared.upgrade().expect("the engine is running");
                    // The scheduling state is unborrowed, and so is whatever
                    // the simulated threads borrow: nobody is mid-turn.
                    assert!(shared.state.try_borrow_mut().is_ok(), "state borrowed");
                    assert!(!seen.borrow_mut().is_empty(), "thread 0 started at t=0");
                    let now = shared.now().as_nanos();
                    samples.borrow_mut().push((boundary.as_nanos(), now));
                });
            }
            if policy {
                engine.set_schedule_policy(SchedulePolicyHandle::new(DefaultSchedulePolicy));
            }
            every_way_to_yield(&engine, &seen);
            assert_eq!(engine.run(), Ok(SimTime::from_nanos(3_600)));
            let text = log.borrow_mut().to_text();
            let (seen, samples) = (seen.borrow_mut().clone(), samples.borrow_mut().clone());
            (text, seen, samples)
        }
        let bare = run_once(false, false);
        let sampled = run_once(true, false);
        for (sample, policy) in [(false, true), (true, true)] {
            let (text, seen, samples) = run_once(sample, policy);
            assert_eq!(text, bare.0, "sampler {sample}, policy {policy}");
            assert_eq!(seen, bare.1, "sampler {sample}, policy {policy}");
            assert_eq!(samples, if sample { sampled.2.clone() } else { vec![] });
        }
        assert_eq!((&sampled.0, &sampled.1), (&bare.0, &bare.1));

        // Every accepted event starts or resumes one thread, which notes
        // `now()` at once: the notes are the accepted times, in order.
        let accepted: Vec<u64> = ScheduleLog::parse(&bare.0)
            .expect("own output")
            .steps()
            .iter()
            .map(|step| {
                let time = step
                    .label
                    .strip_prefix("t=")
                    .and_then(|l| l.split(' ').next());
                time.expect("t=<ns> <name>").parse().expect("nanoseconds")
            })
            .collect();
        assert_eq!(bare.1, accepted);
        assert!(accepted.len() == 19 && accepted.windows(2).all(|w| w[0] <= w[1]));
        // A boundary's callback runs when the first event at or past it has
        // been accepted, and the clock already says so.
        let expected: Vec<(u64, u64)> = (1..=3_600 / PERIOD_NS)
            .map(|k| k * PERIOD_NS)
            .map(|b| {
                (
                    b,
                    *accepted.iter().find(|t| **t >= b).expect("a later event"),
                )
            })
            .collect();
        assert_eq!(sampled.2, expected);
    }

    /// How a run ends while other threads are suspended mid-call.
    #[derive(Clone, Copy, Debug)]
    enum Ending {
        Drain,
        Budget,
        Panic,
    }

    #[test]
    fn threads_suspended_in_any_call_unwind_however_the_run_ends() {
        for ending in [Ending::Drain, Ending::Budget, Ending::Panic] {
            let engine = Engine::with_event_budget(40);
            let token = Rc::new(());
            let far = SimDuration::from_secs(1);
            let held = Rc::clone(&token);
            engine.spawn_daemon("in-park", move |ctx| {
                let _held = held;
                ctx.park();
            });
            // A queued resume or timer is a live event: these two cannot be
            // suspended when a run drains.
            if !matches!(ending, Ending::Drain) {
                let held = Rc::clone(&token);
                engine.spawn_daemon("in-advance", move |ctx| {
                    let _held = held;
                    ctx.advance(far);
                });
                let held = Rc::clone(&token);
                engine.spawn_daemon("in-park-until", move |ctx| {
                    let _held = held;
                    ctx.park_until(ctx.now() + far);
                });
            }
            let held = Rc::clone(&token);
            engine.spawn("main", move |ctx| {
                let _held = held;
                ctx.advance(SimDuration::from_nanos(10));
                match ending {
                    Ending::Drain => {}
                    Ending::Budget => loop {
                        ctx.advance(SimDuration::from_nanos(10));
                    },
                    Ending::Panic => panic!("boom"),
                }
            });
            let result = panic::catch_unwind(AssertUnwindSafe(|| engine.run()));
            match ending {
                Ending::Drain => assert_eq!(result.ok(), Some(Ok(SimTime::from_nanos(10)))),
                Ending::Budget => {
                    let spent = SimError::EventBudgetExhausted { budget: 40 };
                    assert_eq!(result.ok(), Some(Err(spent)));
                }
                Ending::Panic => {
                    let payload = result.expect_err("run() re-raises");
                    let expected = "simulated thread 'main#3' panicked: boom";
                    assert_eq!(panic_message(&*payload), expected);
                }
            }
            // Every `_held` was dropped by its thread unwinding.
            assert_eq!(Rc::strong_count(&token), 1, "{ending:?}");
        }
    }

    #[test]
    fn a_policy_panic_takes_the_guard_with_it_and_leaves_the_state_lockable() {
        // `choose_event` runs under the state borrow, inside the
        // `catch_unwind` whose closure owns the `RefMut`. Its third call is
        // made from a simulated thread's `advance`.
        struct ThirdCallBomb(u32);
        impl SchedulePolicy for ThirdCallBomb {
            fn choose_event(&mut self, _now: SimTime, _c: &[ScheduleChoice]) -> usize {
                self.0 += 1;
                assert!(self.0 < 3, "policy boom");
                0
            }
        }
        let engine = Engine::new();
        let token = populate(&engine);
        engine.spawn("clock", |ctx| ctx.advance(SimDuration::from_nanos(1)));
        engine.set_schedule_policy(SchedulePolicyHandle::new(ThirdCallBomb(0)));
        let shared = Rc::clone(&engine.shared);
        assert_eq!(run_panics(engine), "policy boom");
        // `end_run`, `shutdown_all` and the engine's `Drop` all borrowed the
        // state after the panic, and the last of them let go.
        assert_eq!(Rc::strong_count(&token), 1);
        let st = shared
            .state
            .try_borrow_mut()
            .expect("no borrow was left behind");
        assert!(st.ended.is_none() && st.threads.iter().all(|slot| slot.exited));
    }

    #[test]
    #[should_panic(expected = "sampler period must be positive")]
    fn zero_period_sampler_is_rejected() {
        let engine = Engine::new();
        engine.set_sampler(SimDuration::ZERO, |_| {});
    }

    #[test]
    fn park_until_times_out_at_deadline() {
        let engine = Engine::new();
        engine.spawn("sleeper", |ctx| {
            let timed_out = ctx.park_until(SimTime::from_nanos(5_000));
            assert!(timed_out);
            assert_eq!(ctx.now(), SimTime::from_nanos(5_000));
        });
        assert_eq!(engine.run().unwrap(), SimTime::from_nanos(5_000));
    }

    #[test]
    fn park_until_woken_early_returns_false_and_discards_timer() {
        let engine = Engine::new();
        let waiter_tid = Rc::new(RefCell::new(None));
        {
            let waiter_tid = Rc::clone(&waiter_tid);
            engine.spawn("waiter", move |ctx| {
                *waiter_tid.borrow_mut() = Some(ctx.id());
                let timed_out = ctx.park_until(SimTime::from_nanos(100_000));
                assert!(!timed_out);
                assert_eq!(ctx.now(), SimTime::from_nanos(1_000));
            });
        }
        {
            let waiter_tid = Rc::clone(&waiter_tid);
            engine.spawn("waker", move |ctx| {
                ctx.advance(SimDuration::from_micros(1));
                let tid = waiter_tid.borrow_mut().unwrap();
                ctx.unpark(tid);
            });
        }
        // The stale timer must not drag the final clock out to 100µs.
        assert_eq!(engine.run().unwrap(), SimTime::from_nanos(1_000));
    }

    #[test]
    fn park_until_consumes_pending_unpark_token() {
        let engine = Engine::new();
        engine.spawn("self-notify", |ctx| {
            ctx.unpark(ctx.id());
            let timed_out = ctx.park_until(SimTime::from_nanos(50_000));
            assert!(!timed_out);
            assert_eq!(ctx.now(), SimTime::ZERO);
        });
        assert_eq!(engine.run().unwrap(), SimTime::ZERO);
    }

    #[test]
    fn park_after_timed_out_park_until_still_works() {
        let engine = Engine::new();
        let waiter_tid = Rc::new(RefCell::new(None));
        let order = Rc::new(RefCell::new(Vec::new()));
        {
            let waiter_tid = Rc::clone(&waiter_tid);
            let order = Rc::clone(&order);
            engine.spawn("waiter", move |ctx| {
                *waiter_tid.borrow_mut() = Some(ctx.id());
                assert!(ctx.park_until(SimTime::from_nanos(1_000)));
                order.borrow_mut().push("timed-out");
                ctx.park();
                order.borrow_mut().push("woken");
            });
        }
        {
            let waiter_tid = Rc::clone(&waiter_tid);
            let order = Rc::clone(&order);
            engine.spawn("waker", move |ctx| {
                ctx.advance(SimDuration::from_micros(2));
                order.borrow_mut().push("waking");
                let tid = waiter_tid.borrow_mut().unwrap();
                ctx.unpark(tid);
            });
        }
        engine.run().unwrap();
        assert_eq!(*order.borrow_mut(), vec!["timed-out", "waking", "woken"]);
    }

    #[test]
    fn park_until_past_deadline_fires_at_now() {
        let engine = Engine::new();
        engine.spawn("t", |ctx| {
            ctx.advance(SimDuration::from_micros(10));
            // Deadline in the past: clamped to now, still a clean timeout.
            assert!(ctx.park_until(SimTime::from_nanos(1)));
            assert_eq!(ctx.now(), SimTime::from_nanos(10_000));
        });
        engine.run().unwrap();
    }

    #[test]
    fn unpark_during_advance_is_not_lost() {
        // The token lands while `a` is inside `advance`; resuming `a` must
        // not erase it.
        let engine = Engine::new();
        let a = engine.spawn("a", |ctx| {
            ctx.advance(SimDuration::from_micros(10));
            ctx.park();
        });
        engine.spawn("b", move |ctx| {
            ctx.advance(SimDuration::from_micros(5));
            ctx.unpark(a);
        });
        assert_eq!(engine.run(), Ok(SimTime::from_nanos(10_000)));
    }

    #[test]
    fn unpark_before_first_run_is_not_lost() {
        let engine = Engine::new();
        let target = Rc::new(RefCell::new(None));
        {
            let target = Rc::clone(&target);
            engine.spawn("early", move |ctx| {
                // Spawned at t=0 after this thread: queued, not yet run.
                let late = target.borrow_mut().expect("set before run()");
                ctx.unpark(late);
            });
        }
        *target.borrow_mut() = Some(engine.spawn("late", |ctx| ctx.park()));
        assert_eq!(engine.run(), Ok(SimTime::ZERO));
    }

    #[test]
    fn unpark_of_unknown_thread_is_a_noop() {
        let engine = Engine::new();
        engine.spawn("t", |ctx| {
            ctx.unpark(ThreadId(1));
            ctx.unpark(ThreadId(u64::MAX));
            ctx.advance(SimDuration::from_nanos(1));
        });
        assert_eq!(engine.run(), Ok(SimTime::from_nanos(1)));
    }

    /// Adds four threads that park forever (the first a daemon), each
    /// holding a clone of the returned token until it exits or is dropped.
    fn populate(engine: &Engine) -> Rc<()> {
        let token = Rc::new(());
        for i in 0..4 {
            let token = Rc::clone(&token);
            let body = move |ctx: &SimCtx| {
                let _held = token;
                ctx.park();
            };
            if i == 0 {
                engine.spawn_daemon("d", body);
            } else {
                engine.spawn(format!("t{i}"), body);
            }
        }
        token
    }

    #[test]
    fn dropping_an_engine_without_run_shuts_down_its_threads() {
        let engine = Engine::new();
        let token = populate(&engine);
        assert_eq!(Rc::strong_count(&token), 5);
        drop(engine);
        // Shut down, not merely marked: every closure is already dropped.
        assert_eq!(Rc::strong_count(&token), 1);
    }

    #[test]
    fn budget_exhaustion_shuts_down_never_started_threads() {
        let engine = Engine::with_event_budget(2);
        let token = populate(&engine);
        assert_eq!(
            engine.run(),
            Err(SimError::EventBudgetExhausted { budget: 2 })
        );
        assert_eq!(Rc::strong_count(&token), 1);
    }

    #[test]
    fn deadlock_names_every_parked_non_daemon_in_order() {
        let engine = Engine::new();
        let token = populate(&engine);
        let parked = vec!["t1".to_string(), "t2".to_string(), "t3".to_string()];
        assert_eq!(engine.run(), Err(SimError::Deadlock { parked }));
        assert_eq!(Rc::strong_count(&token), 1);
    }

    /// Runs `engine`, expecting `run()` to unwind; returns the panic text.
    fn run_panics(engine: Engine) -> String {
        let payload = panic::catch_unwind(AssertUnwindSafe(|| engine.run()))
            .expect_err("run() should have panicked");
        panic_message(&*payload)
    }

    #[test]
    fn panics_surface_from_run_and_leave_no_thread_behind() {
        // In a simulated thread, while the other four have not started.
        let engine = Engine::new();
        engine.spawn("bomber", |_ctx| panic!("boom"));
        let token = populate(&engine);
        assert_eq!(
            run_panics(engine),
            "simulated thread 'bomber#0' panicked: boom"
        );
        assert_eq!(Rc::strong_count(&token), 1);

        // In the sampler, on the driver thread, with every thread mid-run.
        let engine = Engine::new();
        let token = populate(&engine);
        engine.spawn("clock", |ctx| ctx.advance(SimDuration::from_micros(3)));
        engine.set_sampler(SimDuration::from_micros(1), |_| panic!("sampler boom"));
        assert_eq!(run_panics(engine), "sampler boom");
        assert_eq!(Rc::strong_count(&token), 1);

        // In a policy, under the state borrow, before anything ran.
        struct Bomb;
        impl SchedulePolicy for Bomb {
            fn choose_event(&mut self, _now: SimTime, _c: &[ScheduleChoice]) -> usize {
                panic!("policy boom")
            }
        }
        let engine = Engine::new();
        let token = populate(&engine);
        engine.set_schedule_policy(SchedulePolicyHandle::new(Bomb));
        assert_eq!(run_panics(engine), "policy boom");
        assert_eq!(Rc::strong_count(&token), 1);
    }

    #[test]
    fn run_finishing_on_its_last_budgeted_event_is_ok() {
        // One thread, one advance: exactly two events.
        let engine = Engine::with_event_budget(2);
        engine.spawn("t", |ctx| ctx.advance(SimDuration::from_nanos(1)));
        assert_eq!(engine.run(), Ok(SimTime::from_nanos(1)));

        // A stale timer at the head of the queue is not a live event.
        let engine = Engine::with_event_budget(3);
        let waiter = engine.spawn("waiter", |ctx| {
            assert!(!ctx.park_until(SimTime::from_nanos(500)));
        });
        engine.spawn("waker", move |ctx| ctx.unpark(waiter));
        assert_eq!(engine.run(), Ok(SimTime::ZERO));
    }

    #[test]
    fn a_simulated_thread_finding_the_end_reports_it_like_the_driver_did() {
        // Budget: the fourth event resumes t0, whose next `advance` finds
        // the budget spent with t1's event waiting.
        let engine = Engine::with_event_budget(4);
        let token = Rc::new(());
        for i in 0..3 {
            let token = Rc::clone(&token);
            engine.spawn(format!("t{i}"), move |ctx| {
                let _held = token;
                ctx.advance(SimDuration::from_nanos(1));
                ctx.advance(SimDuration::from_nanos(1));
            });
        }
        assert_eq!(
            engine.run(),
            Err(SimError::EventBudgetExhausted { budget: 4 })
        );
        assert_eq!(Rc::strong_count(&token), 1);

        // Deadlock: the last runner exits and finds the queue drained with
        // non-daemons still parked.
        let engine = Engine::new();
        let token = populate(&engine);
        engine.spawn("runner", |ctx| ctx.advance(SimDuration::from_nanos(1)));
        let parked = vec!["t1".to_string(), "t2".to_string(), "t3".to_string()];
        assert_eq!(engine.run(), Err(SimError::Deadlock { parked }));
        assert_eq!(Rc::strong_count(&token), 1);
    }

    #[test]
    fn callback_panics_on_a_simulated_thread_surface_bare_from_run() {
        // The policy's fifth call is made by a simulated thread mid-run.
        struct FifthCallBomb(u32);
        impl SchedulePolicy for FifthCallBomb {
            fn choose_event(&mut self, _now: SimTime, _c: &[ScheduleChoice]) -> usize {
                self.0 += 1;
                assert!(self.0 < 5, "policy boom on call {}", self.0);
                0
            }
        }
        let engine = Engine::new();
        let token = populate(&engine);
        engine.spawn("clock", |ctx| loop {
            ctx.advance(SimDuration::from_nanos(1));
        });
        engine.set_schedule_policy(SchedulePolicyHandle::new(FifthCallBomb(0)));
        assert_eq!(run_panics(engine), "policy boom on call 5");
        assert_eq!(Rc::strong_count(&token), 1);

        // The sampler's third boundary is crossed by a simulated thread.
        let engine = Engine::new();
        let token = populate(&engine);
        engine.spawn("clock", |ctx| loop {
            ctx.advance(SimDuration::from_nanos(700));
        });
        engine.set_sampler(SimDuration::from_micros(1), |boundary| {
            assert!(boundary < SimTime::from_nanos(3_000), "sampler boom");
        });
        assert_eq!(run_panics(engine), "sampler boom");
        assert_eq!(Rc::strong_count(&token), 1);
    }

    #[test]
    fn exit_passes_the_baton_down_a_chain_of_a_thousand_threads() {
        fn link(ctx: &SimCtx, left: u64, last_count: Rc<Cell<u64>>) {
            if left == 0 {
                last_count.set(ctx.events_processed());
            } else {
                ctx.spawn(format!("link{left}"), move |ctx| {
                    link(ctx, left - 1, last_count)
                });
            }
        }
        let engine = Engine::new();
        let last_count = Rc::new(Cell::new(0));
        let seen = Rc::clone(&last_count);
        engine.spawn("link1000", move |ctx| link(ctx, 999, seen));
        assert_eq!(engine.run(), Ok(SimTime::ZERO));
        assert_eq!(last_count.get(), 1000);
    }

    #[test]
    fn sampler_on_a_simulated_thread_sees_a_quiescent_world() {
        // Every thread bumps the counter just before and just after each
        // advance, so a sampler that ran beside simulated code, or before
        // an earlier event's thread had finished its turn, reads a value
        // off the one implied by "events strictly before the boundary".
        const ROUNDS: u64 = 40;
        const STEPS_NS: [u64; 4] = [300, 500, 700, 1_000];
        let engine = Engine::new();
        let counter = Rc::new(Cell::new(0));
        let samples = Rc::new(RefCell::new(Vec::new()));
        {
            let counter = Rc::clone(&counter);
            let samples = Rc::clone(&samples);
            engine.set_sampler(SimDuration::from_micros(1), move |boundary| {
                samples
                    .borrow_mut()
                    .push((boundary.as_nanos(), counter.get()));
            });
        }
        for step in STEPS_NS {
            let counter = Rc::clone(&counter);
            engine.spawn(format!("every{step}"), move |ctx| {
                for _ in 0..ROUNDS {
                    counter.set(counter.get() + 1);
                    ctx.advance(SimDuration::from_nanos(step));
                    counter.set(counter.get() + 1);
                }
            });
        }
        assert_eq!(engine.run(), Ok(SimTime::from_nanos(ROUNDS * 1_000)));
        let samples = samples.borrow_mut();
        assert_eq!(samples.len() as u64, ROUNDS);
        for &(boundary, seen) in samples.iter() {
            let expected: u64 = STEPS_NS
                .iter()
                .map(|step| match (boundary - 1) / step {
                    done if done < ROUNDS => 1 + 2 * done,
                    _ => 2 * ROUNDS,
                })
                .sum();
            assert_eq!(seen, expected, "boundary {boundary} ns");
        }
    }

    /// Voluntary context switches the OS thread makes while a simulated
    /// thread `advance`s 10 000 times in lockstep with `others` more,
    /// counted from inside that thread.
    #[cfg(target_os = "linux")]
    fn voluntary_switches_while_advancing(others: u64) -> u64 {
        fn voluntary_switches() -> u64 {
            let status = std::fs::read_to_string("/proc/thread-self/status").expect("procfs");
            let line = status
                .lines()
                .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
                .expect("voluntary_ctxt_switches line");
            line.trim().parse().expect("a count")
        }
        fn advance_10_000(ctx: &SimCtx) {
            for _ in 0..10_000 {
                ctx.advance(SimDuration::from_nanos(1));
            }
        }
        let engine = Engine::new();
        let delta = Rc::new(Cell::new(u64::MAX));
        let out = Rc::clone(&delta);
        engine.spawn("measured", move |ctx| {
            let before = voluntary_switches();
            advance_10_000(ctx);
            out.set(voluntary_switches() - before);
        });
        for i in 0..others {
            engine.spawn(format!("other{i}"), advance_10_000);
        }
        assert_eq!(engine.run(), Ok(SimTime::from_nanos(10_000)));
        delta.get()
    }

    /// The own-event path: a thread whose own event is next just carries on.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_lone_thread_advancing_does_not_context_switch() {
        let switches = voluntary_switches_while_advancing(0);
        assert!(switches < 50, "{switches} voluntary context switches");
    }

    /// A hand-off is a switch of stacks, not a sleep and a wake: 20 000 of
    /// them in strict alternation never give up the CPU.
    #[cfg(target_os = "linux")]
    #[test]
    fn two_threads_alternating_do_not_context_switch() {
        let switches = voluntary_switches_while_advancing(1);
        assert!(switches < 50, "{switches} voluntary context switches");
    }

    #[test]
    fn everything_runs_on_the_os_thread_that_called_run() {
        struct Spy(Rc<RefCell<Vec<std::thread::ThreadId>>>);
        impl SchedulePolicy for Spy {
            fn choose_event(&mut self, _now: SimTime, _c: &[ScheduleChoice]) -> usize {
                self.0.borrow_mut().push(std::thread::current().id());
                0
            }
        }
        let engine = Engine::new();
        let seen = Rc::new(RefCell::new(Vec::new()));
        engine.set_schedule_policy(SchedulePolicyHandle::new(Spy(Rc::clone(&seen))));
        let in_sampler = Rc::clone(&seen);
        engine.set_sampler(SimDuration::from_nanos(2), move |_| {
            in_sampler.borrow_mut().push(std::thread::current().id());
        });
        for i in 0..4 {
            let seen = Rc::clone(&seen);
            engine.spawn(format!("t{i}"), move |ctx| {
                for _ in 0..3 {
                    seen.borrow_mut().push(std::thread::current().id());
                    ctx.advance(SimDuration::from_nanos(1));
                }
            });
        }
        assert_eq!(engine.run(), Ok(SimTime::from_nanos(3)));
        let seen = seen.borrow_mut();
        // 12 turns, 16 events, one boundary.
        assert_eq!(seen.len(), 12 + 16 + 1);
        let here = std::thread::current().id();
        assert!(seen.iter().all(|id| *id == here), "{seen:?} vs {here:?}");
    }

    /// Recurses until ≈ 384 KiB of a 512 KiB stack are in use, runs
    /// `bottom` there, and returns the depth reached.
    fn descend(top: usize, bottom: &mut dyn FnMut()) -> usize {
        let frame = std::hint::black_box([1u8; 256]);
        if top - frame.as_ptr() as usize >= 384 * 1024 {
            bottom();
            return 1;
        }
        // The frame is read after the call: not a tail call, not a loop.
        descend(top, bottom) + frame[0] as usize
    }

    #[test]
    fn a_simulated_thread_runs_on_a_real_stack() {
        // Deep frames survive being switched away from and back to.
        let engine = Engine::new();
        let depth = Rc::new(Cell::new(0));
        let out = Rc::clone(&depth);
        engine.spawn("deep", move |ctx| {
            // A misaligned stack faults on the `movaps` spills in here.
            let text = format!("{:.3} {}", 1.5f64, u128::MAX);
            assert_eq!(text, "1.500 340282366920938463463374607431768211455");
            let top = &text as *const String as usize;
            let reached = descend(top, &mut || ctx.advance(SimDuration::from_nanos(2)));
            out.set(reached as u64);
        });
        engine.spawn("other", |ctx| ctx.advance(SimDuration::from_nanos(1)));
        assert_eq!(engine.run(), Ok(SimTime::from_nanos(2)));
        assert!(depth.get() > 100);

        // A panic down there unwinds to the entry function, and the
        // backtrace printer (also run by the panic hook when
        // `RUST_BACKTRACE` is set, as in CI) walks the hand-built stack to
        // its end.
        let engine = Engine::new();
        engine.spawn("deep", |_ctx| {
            let top = 0u8;
            descend(&top as *const u8 as usize, &mut || {
                let trace = std::backtrace::Backtrace::force_capture().to_string();
                assert!(trace.contains("descend"), "{trace}");
                panic!("at the bottom");
            });
        });
        assert_eq!(
            run_panics(engine),
            "simulated thread 'deep#0' panicked: at the bottom"
        );
    }

    /// A simulated thread that overflows its stack runs into the guard page
    /// and takes the process down rather than scribbling on a neighbour's
    /// stack. The victim is this test binary again, running only
    /// `overflow_a_simulated_stack`.
    #[cfg(target_os = "linux")]
    #[test]
    fn overflowing_a_simulated_stack_kills_the_process() {
        use std::os::unix::process::ExitStatusExt;
        use std::process::{Command, Stdio};
        let status = Command::new(std::env::current_exe().expect("own path"))
            .args(["--exact", "engine::tests::overflow_a_simulated_stack"])
            .arg("--ignored")
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .expect("re-run this test binary");
        assert!(
            status.signal().is_some(),
            "the child was not killed: {status:?}"
        );
    }

    #[test]
    #[ignore = "overflows its stack on purpose; overflowing_a_simulated_stack_kills_the_process runs it"]
    fn overflow_a_simulated_stack() {
        fn forever(n: u64) -> u64 {
            let frame = std::hint::black_box([n; 64]);
            if frame[0] == u64::MAX {
                return 0;
            }
            forever(n + 1) + frame[1]
        }
        let engine = Engine::new();
        engine.spawn("bottomless", |_ctx| {
            std::hint::black_box(forever(0));
        });
        let _ = engine.run();
    }

    #[test]
    fn sleep_until_past_is_noop() {
        let engine = Engine::new();
        engine.spawn("t", |ctx| {
            ctx.advance(SimDuration::from_micros(10));
            ctx.sleep_until(SimTime::from_nanos(1)); // in the past
            assert_eq!(ctx.now(), SimTime::from_nanos(10_000));
            ctx.sleep_until(SimTime::from_nanos(20_000));
            assert_eq!(ctx.now(), SimTime::from_nanos(20_000));
        });
        engine.run().unwrap();
    }
}
