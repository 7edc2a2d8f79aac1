//! The daemon's in-memory state machine: a live [`Cluster`] + shared
//! [`ScoreBook`], with the WAL discipline split into two halves:
//!
//! - [`ServeState::prepare_place`] / [`ServeState::prepare_evict`] /
//!   [`ServeState::prepare_migrate`] *decide* — they validate the
//!   request, run the placer, and produce the journal [`Op`] plus the
//!   success reply, without mutating anything.
//! - [`ServeState::commit`] *applies* an op to the cluster. The server
//!   calls it only after the journal append has durably synced; recovery
//!   calls it for every replayed op. Both paths run the identical code,
//!   which is what makes replay byte-exact.
//!
//! Ops record the placement *decision* (VM id, PM, assignment), not the
//! request, so replay never re-runs the placer — recovered state cannot
//! drift even across placer changes.

use crate::journal::{Op, OpKind, Placement, Snapshot};
use crate::wire::{
    ErrorCode, ErrorResp, EvictReq, EvictedResp, MigrateReq, MigratedResp, PlaceReq, PlacedResp,
    StateStats,
};
use pagerankvm::{GraphError, GraphLimits, PageRankConfig, PageRankVmPlacer, ScoreBook};
use prvm_model::{
    catalog, Cluster, ModelError, PlacementAlgorithm, PmId, PmSpec, Quantizer, VmId, VmSpec,
};
use std::fmt;
use std::sync::Arc;

/// The catalog a daemon instance serves: the PM/VM type universe (which
/// fixes the score book) plus the cluster size.
#[derive(Debug, Clone, PartialEq)]
pub struct CatalogSpec {
    /// Distinct PM types (the score book is built per type).
    pub pm_types: Vec<PmSpec>,
    /// VM types clients may request by name.
    pub vm_types: Vec<VmSpec>,
    /// Number of PMs; the cluster cycles through `pm_types`.
    pub pms: usize,
    /// Profile-space resolution the score book is built at. Part of the
    /// catalog hash: scores at different resolutions are different books.
    pub quantizer: Quantizer,
}

impl CatalogSpec {
    /// The paper's EC2 catalog (Tables I/II) at a given cluster size.
    #[must_use]
    pub fn ec2(pms: usize) -> Self {
        Self {
            pm_types: catalog::ec2_pm_types(),
            vm_types: catalog::ec2_vm_types(),
            pms,
            quantizer: Quantizer::default(),
        }
    }

    /// The same catalog at a coarser profile resolution. Tests and the
    /// chaos harness use this: durability and recovery invariants do not
    /// depend on score resolution, and the coarse book builds orders of
    /// magnitude faster in debug builds.
    #[must_use]
    pub fn with_quantizer(mut self, quantizer: Quantizer) -> Self {
        self.quantizer = quantizer;
        self
    }

    /// FNV-1a hash of the full catalog (types + cluster size +
    /// quantizer). Snapshots are keyed by this: state is only meaningful
    /// against its catalog.
    #[must_use]
    pub fn hash(&self) -> u64 {
        let mut h = Fnv::new();
        h.write(&serde_json::to_vec(&self.pm_types).unwrap_or_default());
        h.write(&serde_json::to_vec(&self.vm_types).unwrap_or_default());
        h.write_u64(self.pms as u64);
        h.write_u64(self.quantizer.core_slots);
        h.write_u64(self.quantizer.mem_levels);
        h.write_u64(self.quantizer.disk_levels);
        h.finish()
    }

    fn build_cluster(&self) -> Cluster {
        let specs = (0..self.pms).filter_map(|i| {
            if self.pm_types.is_empty() {
                None
            } else {
                self.pm_types.get(i % self.pm_types.len()).cloned()
            }
        });
        Cluster::from_specs(specs)
    }
}

/// FNV-1a, 64-bit: the digest primitive for state comparison. Not
/// cryptographic — it detects drift, not adversaries.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Recovery / commit failures.
#[derive(Debug)]
pub enum StateError {
    /// The score book could not be built for this catalog.
    Graph(GraphError),
    /// The snapshot was cut under a different catalog.
    CatalogMismatch {
        /// Running catalog hash.
        want: u64,
        /// Snapshot's catalog hash.
        got: u64,
    },
    /// Applying an op failed — on the replay path this means the journal
    /// and the cluster model disagree (corrupt or cross-version store).
    Model(ModelError),
}

impl fmt::Display for StateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Graph(e) => write!(f, "score book build failed: {e}"),
            Self::CatalogMismatch { want, got } => write!(
                f,
                "snapshot catalog 0x{got:016x} does not match running catalog 0x{want:016x}"
            ),
            Self::Model(e) => write!(f, "state apply failed: {e}"),
        }
    }
}

impl std::error::Error for StateError {}

impl From<GraphError> for StateError {
    fn from(e: GraphError) -> Self {
        Self::Graph(e)
    }
}

impl From<ModelError> for StateError {
    fn from(e: ModelError) -> Self {
        Self::Model(e)
    }
}

fn typed_err(id: u64, code: ErrorCode, detail: impl Into<String>) -> ErrorResp {
    ErrorResp {
        id,
        code,
        detail: detail.into(),
        retry_after_ms: 0,
    }
}

/// The daemon's live placement state.
pub struct ServeState {
    cluster: Cluster,
    book: Arc<ScoreBook>,
    placer: PageRankVmPlacer,
    vm_types: Vec<VmSpec>,
    catalog_hash: u64,
}

impl fmt::Debug for ServeState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServeState")
            .field("vms", &self.cluster.vm_count())
            .field("catalog_hash", &format_args!("{:#018x}", self.catalog_hash))
            .finish_non_exhaustive()
    }
}

impl ServeState {
    /// Build the score book for a catalog. The expensive step of
    /// construction, split out so repeated recoveries (the chaos
    /// harness's reboot loop, tests) can reuse one book: the book is a
    /// pure function of the catalog, never of the placement history.
    ///
    /// # Errors
    ///
    /// Propagates [`GraphError`] from the profile-graph build.
    pub fn build_book(catalog_spec: &CatalogSpec) -> Result<Arc<ScoreBook>, StateError> {
        Ok(Arc::new(ScoreBook::build(
            catalog_spec.quantizer,
            &catalog_spec.pm_types,
            &catalog_spec.vm_types,
            &PageRankConfig::default(),
            GraphLimits::default(),
        )?))
    }

    /// The score book from the `PVSB` cache at `path` if it is valid for
    /// this catalog, else a fresh build that is then (best-effort)
    /// persisted there for the next boot.
    ///
    /// Cache hit/miss is observable: `serve.book_cache.hits` and
    /// `serve.book_cache.misses` counters, plus a `serve.book_cache`
    /// event carrying the miss reason. Every [`pagerankvm::CacheError`]
    /// — wrong magic, version bump, catalog change, checksum mismatch,
    /// truncation — is a *miss* (fall back to a full rebuild), never a
    /// fatal error and never silently stale scores.
    ///
    /// # Errors
    ///
    /// Propagates [`GraphError`] if the fallback build itself fails.
    /// Persisting the fresh artifact is best-effort: a write failure
    /// counts `serve.book_cache.save_errors` and the daemon carries on.
    pub fn load_or_build_book(
        catalog_spec: &CatalogSpec,
        path: &std::path::Path,
    ) -> Result<Arc<ScoreBook>, StateError> {
        let hash = catalog_spec.hash();
        let miss_reason = match std::fs::File::open(path) {
            Ok(mut file) => match ScoreBook::load(&mut file, hash) {
                Ok(book) => {
                    prvm_obs::counter!("serve.book_cache.hits", 1);
                    prvm_obs::event("serve.book_cache")
                        .field("outcome", "hit")
                        .field("path", path.display().to_string())
                        .emit();
                    return Ok(Arc::new(book));
                }
                Err(e) => e.to_string(),
            },
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => "absent".to_string(),
            Err(e) => e.to_string(),
        };
        prvm_obs::counter!("serve.book_cache.misses", 1);
        prvm_obs::event("serve.book_cache")
            .field("outcome", "miss")
            .field("reason", miss_reason.as_str())
            .field("path", path.display().to_string())
            .emit();

        let book = Self::build_book(catalog_spec)?;
        // Persist for the next boot: temp file + rename, so a crash
        // mid-write can never leave a half-artifact under the real name
        // (and a torn rename target would still fail its checksum).
        let tmp = path.with_extension("pvsb.tmp");
        let saved = std::fs::File::create(&tmp)
            .map_err(pagerankvm::CacheError::Io)
            .and_then(|mut f| {
                book.save(&mut f, hash)?;
                f.sync_all().map_err(pagerankvm::CacheError::Io)
            })
            .and_then(|()| std::fs::rename(&tmp, path).map_err(pagerankvm::CacheError::Io));
        if let Err(e) = saved {
            prvm_obs::counter!("serve.book_cache.save_errors", 1);
            prvm_obs::event("serve.book_cache")
                .field("outcome", "save_error")
                .field("reason", e.to_string())
                .emit();
        }
        Ok(book)
    }

    /// The one constructor, and cold-start recovery: an empty cluster on
    /// `book`, then the snapshot's placements, then the journal's ops — in
    /// exactly the order they were applied live. Fresh state is
    /// `recover_with_book(spec, ServeState::build_book(spec)?, None, &[])`.
    /// The book depends only on the catalog, so a caller rebooting
    /// repeatedly (the chaos harness, tests) can build it once.
    ///
    /// # Errors
    ///
    /// [`StateError::CatalogMismatch`] for a foreign snapshot;
    /// [`StateError::Model`] when the store disagrees with the model.
    pub fn recover_with_book(
        catalog_spec: &CatalogSpec,
        book: Arc<ScoreBook>,
        snapshot: Option<&Snapshot>,
        ops: &[Op],
    ) -> Result<Self, StateError> {
        let mut state = Self {
            cluster: catalog_spec.build_cluster(),
            placer: PageRankVmPlacer::new(Arc::clone(&book)),
            book,
            vm_types: catalog_spec.vm_types.clone(),
            catalog_hash: catalog_spec.hash(),
        };
        if let Some(snap) = snapshot {
            if snap.catalog_hash != state.catalog_hash {
                return Err(StateError::CatalogMismatch {
                    want: state.catalog_hash,
                    got: snap.catalog_hash,
                });
            }
            for p in &snap.placements {
                state.cluster.place_as(
                    VmId(p.vm),
                    PmId(p.pm),
                    p.spec.clone(),
                    prvm_model::Assignment::new(p.cores.clone(), p.disks.clone()),
                )?;
            }
            state.cluster.reserve_vm_ids(snap.next_vm_id);
        }
        for op in ops {
            state.commit(op)?;
        }
        Ok(state)
    }

    /// The running catalog's hash (snapshots are keyed by it).
    #[must_use]
    pub fn catalog_hash(&self) -> u64 {
        self.catalog_hash
    }

    /// The live cluster (read-only).
    #[must_use]
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// The shared score book.
    #[must_use]
    pub fn book(&self) -> &Arc<ScoreBook> {
        &self.book
    }

    fn vm_spec(&self, name: &str) -> Option<&VmSpec> {
        self.vm_types.iter().find(|t| t.name == name)
    }

    /// Decide a placement. No mutation — returns the journal op and the
    /// reply to send once the op is durable.
    ///
    /// # Errors
    ///
    /// A typed [`ErrorResp`] ready to send: unknown VM type, or no
    /// feasible PM.
    pub fn prepare_place(&mut self, req: &PlaceReq) -> Result<(Op, PlacedResp), ErrorResp> {
        let Some(spec) = self.vm_spec(&req.vm_type).cloned() else {
            return Err(typed_err(
                req.id,
                ErrorCode::UnknownVmType,
                format!("no VM type named {:?} in the catalog", req.vm_type),
            ));
        };
        let Some(decision) = self.placer.choose(&self.cluster, &spec, &|_| false) else {
            return Err(typed_err(
                req.id,
                ErrorCode::NoCapacity,
                format!("no PM can host a {}", spec.name),
            ));
        };
        let vm = self.cluster.next_vm_id();
        let op = Op::place(vm, decision.pm.0, spec, &decision.assignment);
        let reply = PlacedResp {
            id: req.id,
            vm,
            pm: decision.pm.0,
        };
        Ok((op, reply))
    }

    /// Decide an eviction (explicit VM id).
    ///
    /// # Errors
    ///
    /// A typed [`ErrorResp`] when the VM is not resident.
    pub fn prepare_evict(&self, req: &EvictReq) -> Result<(Op, EvictedResp), ErrorResp> {
        let Some(pm) = self.cluster.locate(VmId(req.vm)) else {
            return Err(typed_err(
                req.id,
                ErrorCode::UnknownVm,
                format!("VM {} is not resident", req.vm),
            ));
        };
        let op = Op::remove(req.vm, pm.0);
        let reply = EvictedResp {
            id: req.id,
            vm: req.vm,
            pm: pm.0,
        };
        Ok((op, reply))
    }

    /// Decide a migration: the placer picks a destination excluding the
    /// VM's current host.
    ///
    /// # Errors
    ///
    /// A typed [`ErrorResp`]: unknown VM, or no other PM can host it.
    pub fn prepare_migrate(&mut self, req: &MigrateReq) -> Result<(Op, MigratedResp), ErrorResp> {
        let Some(from) = self.cluster.locate(VmId(req.vm)) else {
            return Err(typed_err(
                req.id,
                ErrorCode::UnknownVm,
                format!("VM {} is not resident", req.vm),
            ));
        };
        let Some((spec, _)) = self.cluster.pm(from).vm(VmId(req.vm)) else {
            return Err(typed_err(
                req.id,
                ErrorCode::InvalidRequest,
                format!("VM {} location is inconsistent", req.vm),
            ));
        };
        let spec = spec.clone();
        let Some(decision) = self.placer.choose(&self.cluster, &spec, &|pm| pm == from) else {
            return Err(typed_err(
                req.id,
                ErrorCode::NoCapacity,
                format!("no other PM can host VM {} ({})", req.vm, spec.name),
            ));
        };
        let op = Op::migrate(req.vm, decision.pm.0, &decision.assignment);
        let reply = MigratedResp {
            id: req.id,
            vm: req.vm,
            from: from.0,
            to: decision.pm.0,
        };
        Ok((op, reply))
    }

    /// Apply one durably journaled op to the cluster. Identical for the
    /// live path and replay.
    ///
    /// # Errors
    ///
    /// [`StateError::Model`] when the op cannot apply — impossible on
    /// the live path (prepare validated against the same state), and a
    /// corrupt-store signal on the replay path.
    pub fn commit(&mut self, op: &Op) -> Result<(), StateError> {
        match op.kind {
            OpKind::Place => {
                let spec = op.spec.clone().ok_or_else(|| {
                    StateError::Model(ModelError::InvalidAssignment {
                        reason: "place op without a VM spec".to_string(),
                    })
                })?;
                self.cluster
                    .place_as(VmId(op.vm), PmId(op.pm), spec, op.assignment())?;
            }
            OpKind::Remove => {
                self.cluster.remove(VmId(op.vm))?;
            }
            OpKind::Migrate => {
                self.cluster
                    .migrate(VmId(op.vm), PmId(op.pm), op.assignment())?;
            }
        }
        Ok(())
    }

    /// Cut a snapshot of the current state at `version`.
    #[must_use]
    pub fn snapshot(&self, version: u64) -> Snapshot {
        let mut vms: Vec<VmId> = self.cluster.vm_ids().collect();
        vms.sort_unstable();
        let placements = vms
            .into_iter()
            .filter_map(|vm| {
                let pm = self.cluster.locate(vm)?;
                let (spec, assignment) = self.cluster.pm(pm).vm(vm)?;
                Some(Placement {
                    vm: vm.0,
                    pm: pm.0,
                    spec: spec.clone(),
                    cores: assignment.cores.clone(),
                    disks: assignment.disks.clone(),
                })
            })
            .collect();
        Snapshot {
            version,
            catalog_hash: self.catalog_hash,
            next_vm_id: self.cluster.next_vm_id(),
            placements,
        }
    }

    /// FNV-1a digest of the full recoverable state: allocator watermark
    /// plus every placement (id, host, spec, assignment) in sorted
    /// order. Two states with equal digests host the same VMs on the
    /// same PMs under the same assignments.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.write_u64(self.cluster.next_vm_id());
        let mut vms: Vec<VmId> = self.cluster.vm_ids().collect();
        vms.sort_unstable();
        for vm in vms {
            let Some(pm) = self.cluster.locate(vm) else {
                continue;
            };
            let Some((spec, assignment)) = self.cluster.pm(pm).vm(vm) else {
                continue;
            };
            h.write_u64(vm.0);
            h.write_u64(pm.0 as u64);
            h.write(&serde_json::to_vec(spec).unwrap_or_default());
            for &c in &assignment.cores {
                h.write_u64(c as u64);
            }
            h.write_u64(u64::MAX); // separator
            for &d in &assignment.disks {
                h.write_u64(d as u64);
            }
            h.write_u64(u64::MAX);
        }
        h.finish()
    }

    /// FNV-1a digest of the score book down to f64 bit patterns: proves
    /// a recovered daemon scores placements identically to the one that
    /// died.
    #[must_use]
    pub fn book_digest(&self) -> u64 {
        let mut h = Fnv::new();
        for (spec, table) in self.book.tables() {
            h.write(spec.name.as_bytes());
            h.write_u64(table.len() as u64);
            for (_, score) in table.iter() {
                h.write_u64(score.to_bits());
            }
        }
        h.finish()
    }

    /// The recoverable half of a stats reply.
    #[must_use]
    pub fn state_stats(&self) -> StateStats {
        StateStats {
            vms: self.cluster.vm_count(),
            active_pms: self.cluster.active_pm_count(),
            ever_used_pms: self.cluster.ever_used_count(),
            next_vm_id: self.cluster.next_vm_id(),
            digest: format!("{:016x}", self.digest()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Coarse resolution: the recovery invariants under test are
    // resolution-independent, and the coarse book builds ~100x faster
    // in debug builds.
    fn coarse() -> Quantizer {
        Quantizer {
            core_slots: 2,
            mem_levels: 4,
            disk_levels: 2,
        }
    }

    fn small_catalog() -> CatalogSpec {
        CatalogSpec::ec2(6).with_quantizer(coarse())
    }

    /// Empty state on a freshly built book.
    fn fresh(catalog_spec: &CatalogSpec) -> ServeState {
        let book = ServeState::build_book(catalog_spec).expect("book");
        ServeState::recover_with_book(catalog_spec, book, None, &[]).expect("build")
    }

    fn place(
        state: &mut ServeState,
        vm_type: &str,
        id: u64,
    ) -> Result<(Op, PlacedResp), ErrorResp> {
        state.prepare_place(&PlaceReq {
            id,
            deadline_ms: 0,
            vm_type: vm_type.to_string(),
        })
    }

    #[test]
    fn place_prepare_does_not_mutate_until_commit() {
        let mut state = fresh(&small_catalog());
        let before = state.digest();
        let (op, reply) = place(&mut state, "m3.large", 1).expect("feasible");
        assert_eq!(state.digest(), before, "prepare must not mutate");
        state.commit(&op).expect("commit");
        assert_ne!(state.digest(), before);
        assert_eq!(state.cluster().vm_count(), 1);
        assert_eq!(reply.vm, 0);
    }

    #[test]
    fn unknown_vm_type_is_typed() {
        let mut state = fresh(&small_catalog());
        let err = place(&mut state, "z9.mega", 1).expect_err("unknown type");
        assert_eq!(err.code, ErrorCode::UnknownVmType);
        assert_eq!(err.id, 1);
    }

    #[test]
    fn evict_and_migrate_roundtrip() {
        let mut state = fresh(&small_catalog());
        let (op, placed) = place(&mut state, "m3.large", 1).expect("place");
        state.commit(&op).expect("commit");

        let (mig_op, mig) = state
            .prepare_migrate(&MigrateReq {
                id: 2,
                deadline_ms: 0,
                vm: placed.vm,
            })
            .expect("migratable");
        assert_ne!(mig.from, mig.to, "destination excludes the source");
        state.commit(&mig_op).expect("commit migrate");

        let (ev_op, ev) = state
            .prepare_evict(&EvictReq {
                id: 3,
                deadline_ms: 0,
                vm: placed.vm,
            })
            .expect("evictable");
        assert_eq!(ev.pm, mig.to);
        state.commit(&ev_op).expect("commit evict");
        assert_eq!(state.cluster().vm_count(), 0);

        let err = state
            .prepare_evict(&EvictReq {
                id: 4,
                deadline_ms: 0,
                vm: placed.vm,
            })
            .expect_err("already gone");
        assert_eq!(err.code, ErrorCode::UnknownVm);
    }

    #[test]
    fn replay_reproduces_digest_and_book() {
        let catalog_spec = small_catalog();
        let mut live = fresh(&catalog_spec);
        let mut ops = Vec::new();
        for (i, ty) in ["m3.large", "m3.medium", "c3.large", "m3.xlarge"]
            .iter()
            .enumerate()
        {
            let (op, _) = place(&mut live, ty, i as u64).expect("place");
            live.commit(&op).expect("commit");
            ops.push(op);
        }
        let (ev, _) = live
            .prepare_evict(&EvictReq {
                id: 9,
                deadline_ms: 0,
                vm: 1,
            })
            .expect("evict");
        live.commit(&ev).expect("commit");
        ops.push(ev);

        let book = ServeState::build_book(&catalog_spec).expect("book");
        let recovered =
            ServeState::recover_with_book(&catalog_spec, book, None, &ops).expect("recover");
        assert_eq!(recovered.digest(), live.digest(), "cluster bit-identical");
        assert_eq!(
            recovered.book_digest(),
            live.book_digest(),
            "book bit-identical"
        );
        assert_eq!(recovered.state_stats(), live.state_stats());
    }

    #[test]
    fn snapshot_plus_tail_equals_full_replay() {
        let catalog_spec = small_catalog();
        let mut live = fresh(&catalog_spec);
        let mut all_ops = Vec::new();
        for i in 0..6u64 {
            let (op, _) = place(&mut live, "m3.medium", i).expect("place");
            live.commit(&op).expect("commit");
            all_ops.push(op);
        }
        // Evict the highest id, then snapshot: the watermark must keep
        // id 5 retired even though no placement mentions it.
        let (ev, _) = live
            .prepare_evict(&EvictReq {
                id: 10,
                deadline_ms: 0,
                vm: 5,
            })
            .expect("evict");
        live.commit(&ev).expect("commit");
        let snap = live.snapshot(1);
        assert_eq!(snap.next_vm_id, 6, "watermark survives eviction");

        // Two more ops after the snapshot form the journal tail.
        let mut tail = Vec::new();
        for i in 20..22u64 {
            let (op, reply) = place(&mut live, "c3.large", i).expect("place");
            live.commit(&op).expect("commit");
            assert!(reply.vm >= 6, "no id reuse after recovery watermark");
            tail.push(op);
        }

        let book = ServeState::build_book(&catalog_spec).expect("book");
        let recovered = ServeState::recover_with_book(&catalog_spec, book, Some(&snap), &tail)
            .expect("recover");
        assert_eq!(recovered.digest(), live.digest());
        assert_eq!(recovered.state_stats(), live.state_stats());
    }

    #[test]
    fn foreign_snapshot_is_refused() {
        let catalog_spec = small_catalog();
        let live = fresh(&catalog_spec);
        let mut snap = live.snapshot(1);
        snap.catalog_hash ^= 0xFF;
        let book = ServeState::build_book(&catalog_spec).expect("book");
        let err = ServeState::recover_with_book(&catalog_spec, book, Some(&snap), &[])
            .expect_err("foreign");
        assert!(matches!(err, StateError::CatalogMismatch { .. }), "{err}");
    }

    #[test]
    fn catalog_hash_is_sensitive_to_size_types_and_resolution() {
        let a = CatalogSpec::ec2(6).hash();
        let b = CatalogSpec::ec2(7).hash();
        assert_ne!(a, b, "cluster size is part of the key");
        let mut spec = CatalogSpec::ec2(6);
        spec.vm_types.pop();
        assert_ne!(spec.hash(), a, "vm types are part of the key");
        assert_eq!(CatalogSpec::ec2(6).hash(), a, "hash is deterministic");
        assert_ne!(
            CatalogSpec::ec2(6).with_quantizer(coarse()).hash(),
            a,
            "profile resolution is part of the key"
        );
    }
}
