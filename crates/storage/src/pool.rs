use std::collections::HashMap;

use crate::{FileId, SimDisk};

/// A page-granular LRU buffer pool over a [`SimDisk`].
///
/// The paper's algorithms deliberately bypass caching (direct I/O), but the
/// *indexed* join baselines need one: an R-tree traversal re-reads upper
/// nodes constantly, and charging `PT + 1` for every revisit would be
/// nonsense. The pool holds `capacity` pages, evicts least-recently-used,
/// and counts hits/misses — misses hit the underlying simulated disk and
/// therefore the cost model.
pub struct BufferPool {
    disk: SimDisk,
    capacity: usize,
    map: HashMap<(FileId, u64), usize>,
    slots: Vec<Slot>,
    clock: u64,
    /// Page requests served from the pool.
    pub hits: u64,
    /// Page requests that had to read the disk.
    pub misses: u64,
}

struct Slot {
    key: (FileId, u64),
    data: Vec<u8>,
    last_used: u64,
}

impl BufferPool {
    /// A pool of `capacity` pages (≥ 1).
    pub fn new(disk: &SimDisk, capacity: usize) -> BufferPool {
        BufferPool {
            disk: disk.clone(),
            capacity: capacity.max(1),
            map: HashMap::new(),
            slots: Vec::new(),
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Memory held by the pool, for budget accounting.
    pub fn buffer_bytes(&self) -> usize {
        self.capacity * self.disk.model().page_size
    }

    /// Returns page `page_no` of `file`, reading it on a miss. The returned
    /// slice is valid until the next `get` (which may evict it).
    pub fn get(&mut self, file: FileId, page_no: u64) -> &[u8] {
        self.clock += 1;
        let key = (file, page_no);
        if let Some(&slot) = self.map.get(&key) {
            self.hits += 1;
            self.slots[slot].last_used = self.clock;
            return &self.slots[slot].data;
        }
        self.misses += 1;
        let ps = self.disk.model().page_size as u64;
        let offset = page_no * ps;
        let len = (self.disk.len(file).saturating_sub(offset)).min(ps) as usize;
        let mut data = vec![0u8; len];
        self.disk.read(file, offset, &mut data);
        let slot = if self.slots.len() < self.capacity {
            self.slots.push(Slot {
                key,
                data,
                last_used: self.clock,
            });
            self.slots.len() - 1
        } else {
            // Evict the least recently used page. Invariant: this branch is
            // only reached with `slots.len() == capacity >= 1` (clamped in
            // `new`), so a minimum always exists.
            let victim = self
                .slots
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.last_used)
                .map(|(i, _)| i)
                .expect("capacity >= 1 slots are non-empty");
            self.map.remove(&self.slots[victim].key);
            self.slots[victim] = Slot {
                key,
                data,
                last_used: self.clock,
            };
            victim
        };
        self.map.insert(key, slot);
        &self.slots[slot].data
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::DiskModel;

    fn disk() -> SimDisk {
        SimDisk::new(DiskModel {
            page_size: 16,
            positioning_ratio: 4.0,
            transfer_secs_per_page: 1.0,
            cpu_slowdown: 1.0,
            channels: 1,
            degraded_channel: None,
        })
    }

    fn file_with_pages(d: &SimDisk, pages: usize) -> FileId {
        let f = d.create();
        for p in 0..pages {
            d.append(f, &[p as u8; 16]);
        }
        f
    }

    #[test]
    fn hit_avoids_disk_read() {
        let d = disk();
        let f = file_with_pages(&d, 4);
        d.reset_stats();
        let mut pool = BufferPool::new(&d, 2);
        assert_eq!(pool.get(f, 1)[0], 1);
        assert_eq!(pool.get(f, 1)[0], 1);
        assert_eq!(pool.hits, 1);
        assert_eq!(pool.misses, 1);
        assert_eq!(d.stats().read_requests, 1, "second get must not touch disk");
    }

    #[test]
    fn lru_evicts_the_coldest_page() {
        let d = disk();
        let f = file_with_pages(&d, 4);
        let mut pool = BufferPool::new(&d, 2);
        pool.get(f, 0);
        pool.get(f, 1);
        pool.get(f, 0); // page 1 is now coldest
        pool.get(f, 2); // evicts 1
        d.reset_stats();
        pool.get(f, 0); // hit
        assert_eq!(d.stats().read_requests, 0);
        pool.get(f, 1); // miss: was evicted
        assert_eq!(d.stats().read_requests, 1);
    }

    #[test]
    fn larger_pool_means_fewer_misses() {
        let d = disk();
        let f = file_with_pages(&d, 8);
        let walk: Vec<u64> = (0..100).map(|i| (i * 3) % 8).collect();
        let run = |cap: usize| {
            let mut pool = BufferPool::new(&d, cap);
            for &p in &walk {
                pool.get(f, p);
            }
            pool.misses
        };
        let small = run(2);
        let big = run(8);
        assert!(big < small, "big pool {big} misses vs small {small}");
        assert_eq!(big, 8, "full residency misses each page exactly once");
    }

    #[test]
    fn partial_last_page() {
        let d = disk();
        let f = d.create();
        d.append(f, &[7u8; 20]); // 1.25 pages
        let mut pool = BufferPool::new(&d, 2);
        assert_eq!(pool.get(f, 0).len(), 16);
        assert_eq!(pool.get(f, 1).len(), 4);
    }
}
