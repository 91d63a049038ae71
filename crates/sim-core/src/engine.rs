//! The simulation run loop.

use crate::event::EventQueue;
use crate::time::SimTime;

/// The state machine a simulation advances.
///
/// A `World` owns all simulated entities. The [`Engine`] pops events in
/// timestamp order and hands each to [`World::handle`], which mutates the
/// world and may schedule follow-up events on the queue it is given.
pub trait World {
    /// The event alphabet of this world.
    type Event;

    /// Processes one event at instant `now`.
    fn handle(&mut self, now: SimTime, event: Self::Event, queue: &mut EventQueue<Self::Event>);
}

/// A discrete-event simulation engine: a clock, an event queue and a
/// [`World`].
///
/// # Examples
///
/// See the [crate-level documentation](crate) for a complete example.
#[derive(Debug)]
pub struct Engine<W: World> {
    world: W,
    queue: EventQueue<W::Event>,
    now: SimTime,
    executed: u64,
}

impl<W: World> Engine<W> {
    /// Creates an engine at time zero with an empty queue.
    pub fn new(world: W) -> Self {
        Engine {
            world,
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            executed: 0,
        }
    }

    /// Creates an engine whose queue is pre-sized for `capacity` pending
    /// events, avoiding growth reallocations on the hot schedule path.
    pub fn with_queue_capacity(world: W, capacity: usize) -> Self {
        Engine {
            world,
            queue: EventQueue::with_capacity(capacity),
            now: SimTime::ZERO,
            executed: 0,
        }
    }

    /// The current simulation instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events executed so far.
    pub fn events_executed(&self) -> u64 {
        self.executed
    }

    /// Shared access to the world state.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Exclusive access to the world state.
    ///
    /// Useful for wiring up entities before the run and for extracting
    /// measurements afterwards.
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// Consumes the engine, returning the world.
    pub fn into_world(self) -> W {
        self.world
    }

    /// Schedules an event.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current instant — scheduling
    /// into the past would corrupt causality.
    pub fn schedule(&mut self, at: SimTime, event: W::Event) {
        assert!(at >= self.now, "cannot schedule into the past");
        self.queue.schedule(at, event);
    }

    /// Schedules an event in ordering lane `lane` (see
    /// [`EventQueue::schedule_in_lane`]): among same-instant events,
    /// lower lanes pop first. Sharded executors use this to inject
    /// cross-shard arrivals with a thread-independent total order.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current instant.
    pub fn schedule_in_lane(&mut self, at: SimTime, lane: u16, event: W::Event) {
        assert!(at >= self.now, "cannot schedule into the past");
        self.queue.schedule_in_lane(at, lane, event);
    }

    /// Runs until the queue drains.
    ///
    /// Returns the number of events executed by this call.
    pub fn run_to_completion(&mut self) -> u64 {
        // Unconditional pops: an infinite horizon never rejects an
        // event, so the per-event root comparison of `run_until` would
        // be pure overhead here.
        let mut count = 0;
        while let Some(scheduled) = self.queue.pop() {
            debug_assert!(scheduled.at >= self.now, "time went backwards");
            self.now = scheduled.at;
            self.world.handle(self.now, scheduled.event, &mut self.queue);
            self.executed += 1;
            count += 1;
        }
        count
    }

    /// Runs until the queue drains or the next event would fire after
    /// `horizon` (events at exactly `horizon` are executed).
    ///
    /// Returns the number of events executed by this call. The clock is
    /// left at the last executed event (it does not jump to `horizon`).
    pub fn run_until(&mut self, horizon: SimTime) -> u64 {
        let mut count = 0;
        // pop_at_or_before does the horizon check on the heap root
        // directly — no separate peek traversal per event.
        while let Some(scheduled) = self.queue.pop_at_or_before(horizon) {
            debug_assert!(scheduled.at >= self.now, "time went backwards");
            self.now = scheduled.at;
            self.world.handle(self.now, scheduled.event, &mut self.queue);
            self.executed += 1;
            count += 1;
        }
        count
    }

    /// Executes at most `budget` events (stopping earlier if the queue
    /// drains). Returns the number executed.
    pub fn run_events(&mut self, budget: u64) -> u64 {
        let mut count = 0;
        while count < budget {
            match self.queue.pop() {
                Some(scheduled) => {
                    debug_assert!(scheduled.at >= self.now, "time went backwards");
                    self.now = scheduled.at;
                    self.world.handle(self.now, scheduled.event, &mut self.queue);
                    self.executed += 1;
                    count += 1;
                }
                None => break,
            }
        }
        count
    }

    /// The clock state a checkpoint must capture: the current instant
    /// and the lifetime event count.
    pub fn clock_state(&self) -> (SimTime, u64) {
        (self.now, self.executed)
    }

    /// Restores clock state captured by [`Engine::clock_state`], for
    /// resuming a checkpointed run on a freshly rebuilt engine.
    ///
    /// # Panics
    ///
    /// Panics if the restore would move the clock backwards — a resumed
    /// engine must only ever be fast-forwarded.
    pub fn restore_clock_state(&mut self, now: SimTime, executed: u64) {
        assert!(now >= self.now, "clock restore cannot rewind time");
        self.now = now;
        self.executed = executed;
    }

    /// Shared access to the event queue, for checkpointing.
    pub fn queue(&self) -> &EventQueue<W::Event> {
        &self.queue
    }

    /// Exclusive access to the event queue, for restoring a checkpoint.
    /// Library code other than checkpoint restore should schedule
    /// through [`Engine::schedule`] so the past-check applies.
    pub fn queue_mut(&mut self) -> &mut EventQueue<W::Event> {
        &mut self.queue
    }

    /// Number of pending events.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    struct Ping {
        log: Vec<(u64, u32)>,
    }

    #[derive(Debug, Clone, Copy)]
    enum Ev {
        Ping(u32),
        Chain(u32),
    }

    impl World for Ping {
        type Event = Ev;
        fn handle(&mut self, now: SimTime, event: Ev, queue: &mut EventQueue<Ev>) {
            match event {
                Ev::Ping(id) => self.log.push((now.as_nanos(), id)),
                Ev::Chain(left) => {
                    self.log.push((now.as_nanos(), left));
                    if left > 0 {
                        queue.schedule(now + SimDuration::from_nanos(100), Ev::Chain(left - 1));
                    }
                }
            }
        }
    }

    #[test]
    fn executes_in_order_and_advances_clock() {
        let mut engine = Engine::new(Ping { log: vec![] });
        engine.schedule(SimTime::from_nanos(50), Ev::Ping(2));
        engine.schedule(SimTime::from_nanos(10), Ev::Ping(1));
        let n = engine.run_to_completion();
        assert_eq!(n, 2);
        assert_eq!(engine.world().log, vec![(10, 1), (50, 2)]);
        assert_eq!(engine.now(), SimTime::from_nanos(50));
    }

    #[test]
    fn chained_events_recur() {
        let mut engine = Engine::new(Ping { log: vec![] });
        engine.schedule(SimTime::ZERO, Ev::Chain(3));
        engine.run_to_completion();
        assert_eq!(
            engine.world().log,
            vec![(0, 3), (100, 2), (200, 1), (300, 0)]
        );
        assert_eq!(engine.events_executed(), 4);
    }

    #[test]
    fn run_until_respects_horizon_inclusive() {
        let mut engine = Engine::new(Ping { log: vec![] });
        engine.schedule(SimTime::from_nanos(10), Ev::Ping(1));
        engine.schedule(SimTime::from_nanos(20), Ev::Ping(2));
        engine.schedule(SimTime::from_nanos(30), Ev::Ping(3));
        let n = engine.run_until(SimTime::from_nanos(20));
        assert_eq!(n, 2);
        assert_eq!(engine.pending_events(), 1);
        assert_eq!(engine.now(), SimTime::from_nanos(20));
    }

    #[test]
    fn run_events_respects_budget() {
        let mut engine = Engine::new(Ping { log: vec![] });
        engine.schedule(SimTime::ZERO, Ev::Chain(10));
        let n = engine.run_events(5);
        assert_eq!(n, 5);
        assert!(engine.pending_events() > 0);
    }

    #[test]
    #[should_panic(expected = "past")]
    fn scheduling_into_the_past_panics() {
        let mut engine = Engine::new(Ping { log: vec![] });
        engine.schedule(SimTime::from_nanos(100), Ev::Ping(1));
        engine.run_to_completion();
        engine.schedule(SimTime::from_nanos(50), Ev::Ping(2));
    }
}
