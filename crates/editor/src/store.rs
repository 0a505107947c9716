//! A bounded, TTL-evicting store of live [`EditSession`]s.
//!
//! The server holds one store; each session sits behind its own
//! `Mutex`, so two clients editing *different* sessions never contend,
//! while two requests racing on the *same* session serialize (edits are
//! stateful — interleaving them would corrupt the version counter).
//!
//! Bounds: at most `capacity` sessions (creating past it evicts the
//! least-recently-used session first), and any session idle longer than
//! `ttl` is reaped lazily on the next store operation — there is no
//! background thread to leak. A session holds its circuit and one
//! compiled program, so a full store holds `capacity` programs; nothing
//! yet caps the size of each.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::session::EditSession;

/// Default maximum number of concurrently live sessions.
pub const DEFAULT_SESSION_CAPACITY: usize = 64;

/// Default idle time after which a session is evicted.
pub const DEFAULT_SESSION_TTL: Duration = Duration::from_secs(15 * 60);

/// Monotonic counters the store keeps and the server exposes on
/// `/metrics`.
#[derive(Debug, Default)]
pub struct SessionCounters {
    /// Sessions created.
    pub created: AtomicU64,
    /// Sessions closed by an explicit `DELETE`.
    pub closed: AtomicU64,
    /// Sessions evicted (TTL expiry or capacity pressure).
    pub evicted: AtomicU64,
    /// Single edits applied (across all sessions and batches).
    pub edits: AtomicU64,
    /// Edit batches applied, each answered by a full compile.
    pub full: AtomicU64,
    /// Edit batches rejected (version conflict, invalid edit, compile
    /// error).
    pub rejected: AtomicU64,
}

impl SessionCounters {
    /// Relaxed load of one counter.
    pub fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }

    /// Relaxed add.
    pub fn bump(counter: &AtomicU64, by: u64) {
        counter.fetch_add(by, Ordering::Relaxed);
    }
}

struct Slot {
    session: Arc<Mutex<EditSession>>,
    last_used: Instant,
}

/// The bounded TTL map. Cloneable shared handle (`Arc` inside).
#[derive(Clone)]
pub struct SessionStore {
    inner: Arc<Mutex<HashMap<String, Slot>>>,
    counters: Arc<SessionCounters>,
    capacity: usize,
    ttl: Duration,
}

impl SessionStore {
    /// A store with the given bounds.
    pub fn new(capacity: usize, ttl: Duration) -> Self {
        SessionStore {
            inner: Arc::new(Mutex::new(HashMap::new())),
            counters: Arc::new(SessionCounters::default()),
            capacity: capacity.max(1),
            ttl,
        }
    }

    /// The shared counters.
    pub fn counters(&self) -> &SessionCounters {
        &self.counters
    }

    /// Live session count (after reaping expired ones).
    pub fn len(&self) -> usize {
        let mut map = self.inner.lock().expect("session store lock");
        Self::reap(&mut map, self.ttl, &self.counters);
        map.len()
    }

    /// Whether no sessions are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn reap(map: &mut HashMap<String, Slot>, ttl: Duration, counters: &SessionCounters) {
        let before = map.len();
        map.retain(|_, slot| slot.last_used.elapsed() < ttl);
        let reaped = before - map.len();
        if reaped > 0 {
            SessionCounters::bump(&counters.evicted, reaped as u64);
        }
    }

    /// Inserts a freshly opened session, evicting the least-recently-used
    /// one if the store is at capacity.
    pub fn insert(&self, session: EditSession) {
        let id = session.id().to_string();
        let mut map = self.inner.lock().expect("session store lock");
        Self::reap(&mut map, self.ttl, &self.counters);
        while map.len() >= self.capacity {
            let Some(oldest) = map
                .iter()
                .min_by_key(|(_, slot)| slot.last_used)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            map.remove(&oldest);
            SessionCounters::bump(&self.counters.evicted, 1);
        }
        map.insert(
            id,
            Slot {
                session: Arc::new(Mutex::new(session)),
                last_used: Instant::now(),
            },
        );
        SessionCounters::bump(&self.counters.created, 1);
    }

    /// Looks up a session, refreshing its idle clock. The returned handle
    /// is the session's own lock: hold it across the whole edit so
    /// concurrent batches on one session serialize.
    pub fn get(&self, id: &str) -> Option<Arc<Mutex<EditSession>>> {
        let mut map = self.inner.lock().expect("session store lock");
        Self::reap(&mut map, self.ttl, &self.counters);
        let slot = map.get_mut(id)?;
        slot.last_used = Instant::now();
        Some(Arc::clone(&slot.session))
    }

    /// Closes a session explicitly. Returns the removed handle.
    pub fn remove(&self, id: &str) -> Option<Arc<Mutex<EditSession>>> {
        let mut map = self.inner.lock().expect("session store lock");
        let slot = map.remove(id)?;
        SessionCounters::bump(&self.counters.closed, 1);
        Some(slot.session)
    }

    /// Drains every session (server shutdown). Returns how many were
    /// closed.
    pub fn drain(&self) -> usize {
        let mut map = self.inner.lock().expect("session store lock");
        let n = map.len();
        map.clear();
        SessionCounters::bump(&self.counters.closed, n as u64);
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftqc_circuit::Circuit;
    use ftqc_compiler::CompilerOptions;

    fn open(id: &str) -> EditSession {
        let mut c = Circuit::new(2);
        c.h(0).cnot(0, 1).t(1);
        EditSession::open(id, c, CompilerOptions::default().routing_paths(2))
            .expect("seed compile")
            .0
    }

    #[test]
    fn insert_get_remove_round_trip() {
        let store = SessionStore::new(4, Duration::from_secs(60));
        store.insert(open("a"));
        assert_eq!(store.len(), 1);
        assert!(store.get("a").is_some());
        assert!(store.get("b").is_none());
        assert!(store.remove("a").is_some());
        assert!(store.is_empty());
        assert_eq!(SessionCounters::get(&store.counters().closed), 1);
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        let store = SessionStore::new(2, Duration::from_secs(60));
        store.insert(open("a"));
        store.insert(open("b"));
        // Touch "a" so "b" becomes the LRU victim.
        let _ = store.get("a");
        store.insert(open("c"));
        assert!(store.get("a").is_some());
        assert!(store.get("b").is_none());
        assert!(store.get("c").is_some());
        assert_eq!(SessionCounters::get(&store.counters().evicted), 1);
    }

    #[test]
    fn ttl_reaps_idle_sessions() {
        let store = SessionStore::new(4, Duration::ZERO);
        store.insert(open("a"));
        assert!(store.get("a").is_none());
        assert_eq!(SessionCounters::get(&store.counters().evicted), 1);
    }

    #[test]
    fn drain_closes_everything() {
        let store = SessionStore::new(4, Duration::from_secs(60));
        store.insert(open("a"));
        store.insert(open("b"));
        assert_eq!(store.drain(), 2);
        assert!(store.is_empty());
    }
}
