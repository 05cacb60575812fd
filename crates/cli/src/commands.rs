//! Command dispatch and implementations.

use crate::record::parse_record;
use crate::schema_dsl::parse_schema;
use apks_core::persist::{describe_schema, SavedDeployment};
use apks_core::{proxy_transform, ApksError, Capability, EncryptedIndex, Query, QueryPolicy};
use apks_hpe::ProxyTransformKey;
use apks_math::encode::{Reader, Writer};
use core::fmt;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fs;
use std::path::Path;

/// CLI errors (message + non-zero exit).
#[derive(Debug)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

impl From<ApksError> for CliError {
    fn from(e: ApksError) -> Self {
        CliError(e.to_string())
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError(format!("io error: {e}"))
    }
}

/// The options (`--name value`) and flags (`--name`) one command takes,
/// and whether it takes positional arguments. Anything else on its
/// command line is an error.
pub(crate) struct Spec {
    options: &'static [&'static str],
    flags: &'static [&'static str],
    positional: bool,
}

impl Spec {
    pub(crate) const fn new(
        options: &'static [&'static str],
        flags: &'static [&'static str],
    ) -> Spec {
        Spec {
            options,
            flags,
            positional: false,
        }
    }

    const fn with_positional(self) -> Spec {
        Spec {
            positional: true,
            ..self
        }
    }
}

/// A command line parsed against its command's [`Spec`].
pub(crate) struct Args {
    options: Vec<(&'static str, String)>,
    flags: Vec<&'static str>,
    positional: Vec<String>,
}

impl Args {
    /// Parses `args` for `command`, refusing any option, flag or
    /// positional argument that `spec` does not list.
    pub(crate) fn parse(command: &str, args: &[String], spec: &Spec) -> Result<Args, CliError> {
        let mut parsed = Args {
            options: Vec::new(),
            flags: Vec::new(),
            positional: Vec::new(),
        };
        let mut rest = args.iter();
        while let Some(a) = rest.next() {
            let Some(name) = a.strip_prefix("--") else {
                if !spec.positional {
                    return Err(CliError(format!(
                        "{command} takes no positional argument, got {a:?}"
                    )));
                }
                parsed.positional.push(a.clone());
                continue;
            };
            if let Some(&flag) = spec.flags.iter().find(|f| **f == name) {
                parsed.flags.push(flag);
            } else if let Some(&option) = spec.options.iter().find(|o| **o == name) {
                let value = rest
                    .next()
                    .ok_or_else(|| CliError(format!("--{name} needs a value")))?;
                parsed.options.push((option, value.clone()));
            } else {
                return Err(CliError(format!(
                    "{command} does not take --{name} (see `apks help`)"
                )));
            }
        }
        Ok(parsed)
    }

    pub(crate) fn get(&self, name: &str) -> Option<&str> {
        self.options
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    fn require(&self, name: &str) -> Result<&str, CliError> {
        self.get(name)
            .ok_or_else(|| CliError(format!("missing required option --{name}")))
    }

    /// `--name` parsed as a `T`, or `None` when it is absent; a value
    /// that does not parse is an error naming the option.
    pub(crate) fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, CliError>
    where
        T::Err: fmt::Display,
    {
        self.get(name)
            .map(|v| {
                v.parse()
                    .map_err(|e| CliError(format!("--{name} {v:?}: {e}")))
            })
            .transpose()
    }

    /// Overwrites `field` with `--name` when it is given.
    pub(crate) fn apply<T: std::str::FromStr>(
        &self,
        name: &str,
        field: &mut T,
    ) -> Result<(), CliError>
    where
        T::Err: fmt::Display,
    {
        if let Some(v) = self.parsed(name)? {
            *field = v;
        }
        Ok(())
    }

    pub(crate) fn has_flag(&self, name: &str) -> bool {
        self.flags.contains(&name)
    }
}

type Command = fn(&Args, &mut dyn std::io::Write) -> Result<(), CliError>;

/// Every command but `sim`, which parses its scenario's own options.
const COMMANDS: &[(&str, Spec, Command)] = &[
    (
        "setup",
        Spec::new(&["schema", "out", "curve", "seed"], &["plus"]),
        cmd_setup,
    ),
    (
        "inspect",
        Spec::new(&[], &[]).with_positional(),
        cmd_inspect,
    ),
    (
        "gen-index",
        Spec::new(&["deploy", "record", "out", "seed"], &[]),
        cmd_gen_index,
    ),
    (
        "gen-cap",
        Spec::new(
            &["deploy", "query", "out", "min-dims", "seed"],
            &["points", "finalize"],
        ),
        cmd_gen_cap,
    ),
    (
        "delegate",
        Spec::new(&["deploy", "cap", "query", "out", "seed"], &[]),
        cmd_delegate,
    ),
    (
        "search",
        Spec::new(&["deploy", "cap"], &[]).with_positional(),
        cmd_search,
    ),
    (
        "transform",
        Spec::new(&["deploy", "in", "out"], &[]),
        cmd_transform,
    ),
    ("stats", Spec::new(&["docs", "seed"], &["json"]), cmd_stats),
    (
        "store-stats",
        Spec::new(&["dir"], &["json"]),
        cmd_store_stats,
    ),
    ("wire-sizes", Spec::new(&["seed"], &[]), cmd_wire_sizes),
    ("demo", Spec::new(&["seed"], &[]), cmd_demo),
];

pub(crate) const USAGE: &str = "\
usage: apks <command> [options]

commands:
  setup      --schema <file> --out <deploy> [--plus] [--curve fast|standard] [--seed N]
  inspect    <deploy>
  gen-index  --deploy <deploy> --record \"f=v,...\" --out <file> [--seed N]
  gen-cap    --deploy <deploy> --query \"...\" --out <file> [--min-dims N] [--points] [--finalize] [--seed N]
  delegate   --deploy <deploy> --cap <file> --query \"...\" --out <file> [--seed N]
  search     --deploy <deploy> --cap <file> <index-file>...
  transform  --deploy <deploy> --in <partial-index> --out <file>   (APKS+ proxy step)
  stats      [--docs N] [--seed N] [--json]   (scan an in-memory corpus, print telemetry)
  store-stats --dir <path> [--json]   (inspect an on-disk paged segment store)
  wire-sizes [--seed N]   (print the canonical wire size of every protocol type)
  sim        <scenario> [options] [--seed N] [--json] [--out <file>]   (run a virtual-tick scenario)
  demo       [--seed N]

scenarios (seed 1 unless --seed; --json prints the metrics snapshot, --out writes it):
  overload   saturating Zipf burst: admission, brown-out, breakers, p99 shed vs result
  batched    the overload stream in micro-batched waves, plus the wave-depth series
  framed     [--arrivals N] [--docs N] [--burst N] [--ticks-per-frame N] [--ticks-per-byte N]
  shard      [--full] [--docs N] [--shards N] [--waves N] [--wave-size N] [--deadline N]
             [--budget N] [--no-oracle] [--dir <path>]   (leaves its store in --dir)
  hydrate    [--docs N] [--queries N] [--cache-bytes N] [--deadline N] [--budget N]
             [--faulted] [--no-rescan] [--dir <path>]
  chaos-net  [--docs N] [--partitions N] [--replication N] [--searches N] [--drop P]
             [--corrupt P] [--duplicate P] [--crash-workloads N] [--crash-points N]
             [--no-oracle] [--dir <path>]
";

/// Entry point: dispatches on `args[0]` (the command).
///
/// # Errors
///
/// Returns a printable error; the binary maps it to exit code 1.
pub fn run(args: &[String], out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err(CliError(USAGE.into()));
    };
    match cmd.as_str() {
        "help" | "--help" | "-h" => {
            writeln!(out, "{USAGE}")?;
            Ok(())
        }
        "sim" => crate::sim::run(rest, out),
        other => {
            let (name, spec, command) = COMMANDS
                .iter()
                .find(|(name, ..)| *name == other)
                .ok_or_else(|| CliError(format!("unknown command {other:?}\n{USAGE}")))?;
            command(&Args::parse(name, rest, spec)?, out)
        }
    }
}

/// `--seed N` when given; entropy otherwise.
fn rng_from(args: &Args) -> Result<StdRng, CliError> {
    Ok(match args.parsed("seed")? {
        Some(seed) => StdRng::seed_from_u64(seed),
        None => StdRng::from_entropy(),
    })
}

pub(crate) fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn load_deployment(path: &str) -> Result<(apks_core::ApksSystem, SavedDeployment), CliError> {
    let bytes = fs::read(path)?;
    SavedDeployment::from_bytes(&bytes).map_err(Into::into)
}

pub(crate) fn write_file(path: &str, bytes: &[u8]) -> Result<(), CliError> {
    if let Some(parent) = Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)?;
        }
    }
    fs::write(path, bytes)?;
    Ok(())
}

fn cmd_setup(args: &Args, out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let schema_path = args.require("schema")?;
    let out_path = args.require("out")?;
    let schema_text = fs::read_to_string(schema_path)?;
    let schema = parse_schema(&schema_text)?;
    let params = match args.get("curve").unwrap_or("fast") {
        "fast" => apks_curve::CurveParams::fast(),
        "standard" => apks_curve::CurveParams::standard(),
        other => return Err(CliError(format!("unknown curve {other:?}"))),
    };
    let system = apks_core::ApksSystem::new(params.clone(), schema);
    let mut rng = rng_from(args)?;
    let saved = if args.has_flag("plus") {
        let (pk, mk) = system.setup_plus(&mut rng);
        SavedDeployment::new_plus(&system, &pk, &mk)
    } else {
        let (pk, msk) = system.setup(&mut rng);
        SavedDeployment::new(&system, &pk, Some(&msk))
    };
    let bytes = saved.to_bytes(&params);
    write_file(out_path, &bytes)?;
    writeln!(
        out,
        "deployment written to {out_path} ({} bytes, n = {}, curve {})",
        bytes.len(),
        system.n(),
        params.label()
    )?;
    Ok(())
}

fn cmd_inspect(args: &Args, out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let path = args
        .positional
        .first()
        .ok_or_else(|| CliError("inspect needs a deployment file".into()))?;
    let (system, saved) = load_deployment(path)?;
    writeln!(out, "curve:   {}", saved.curve_label)?;
    writeln!(out, "n:       {} (vector length)", system.n())?;
    writeln!(
        out,
        "mode:    {}",
        if saved.blinding.is_some() {
            "APKS+ (query private)"
        } else {
            "APKS"
        }
    )?;
    writeln!(
        out,
        "keys:    public{}",
        if saved.msk.is_some() { " + master" } else { "" }
    )?;
    writeln!(out, "fields:")?;
    for line in describe_schema(system.schema()) {
        writeln!(out, "  - {line}")?;
    }
    Ok(())
}

fn cmd_gen_index(args: &Args, out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let (system, saved) = load_deployment(args.require("deploy")?)?;
    let record = parse_record(system.schema(), args.require("record")?)?;
    let out_path = args.require("out")?;
    let mut rng = rng_from(args)?;
    let idx = system.gen_index(&saved.pk, &record, &mut rng)?;
    let mut w = Writer::new();
    idx.encode(system.params(), &mut w);
    let bytes = w.finish();
    write_file(out_path, &bytes)?;
    let note = if saved.blinding.is_some() {
        " (partial — requires proxy transform before it is searchable)"
    } else {
        ""
    };
    writeln!(
        out,
        "index written to {out_path} ({} bytes){note}",
        bytes.len()
    )?;
    Ok(())
}

fn cmd_gen_cap(args: &Args, out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let (system, saved) = load_deployment(args.require("deploy")?)?;
    let msk = saved
        .msk
        .as_ref()
        .ok_or_else(|| CliError("this deployment file has no master key".into()))?;
    let query = Query::parse(args.require("query")?)?;
    let out_path = args.require("out")?;
    let policy = QueryPolicy {
        min_dimensions: args.parsed("min-dims")?.unwrap_or(1),
        max_total_or_terms: 0,
    };
    let mut rng = rng_from(args)?;
    let cap = if args.has_flag("points") {
        system.gen_cap_via_points(&saved.pk, msk, &query, &policy, &mut rng)?
    } else {
        system.gen_cap(&saved.pk, msk, &query, &policy, &mut rng)?
    };
    let cap = if args.has_flag("finalize") {
        cap.finalize()
    } else {
        cap
    };
    let mut w = Writer::new();
    cap.encode(system.params(), &mut w);
    let bytes = w.finish();
    write_file(out_path, &bytes)?;
    writeln!(
        out,
        "capability for `{query}` written to {out_path} ({} bytes{})",
        bytes.len(),
        if args.has_flag("finalize") {
            ", finalized"
        } else {
            ", delegatable"
        }
    )?;
    Ok(())
}

fn cmd_delegate(args: &Args, out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let (system, saved) = load_deployment(args.require("deploy")?)?;
    let cap_bytes = fs::read(args.require("cap")?)?;
    let mut r = Reader::new(&cap_bytes);
    let parent = Capability::decode(system.params(), &mut r)
        .map_err(|e| CliError(format!("capability decode: {e}")))?;
    let query = Query::parse(args.require("query")?)?;
    let out_path = args.require("out")?;
    let mut rng = rng_from(args)?;
    let child = system.delegate_cap(&saved.pk, &parent, &query, &mut rng)?;
    let mut w = Writer::new();
    child.encode(system.params(), &mut w);
    let bytes = w.finish();
    write_file(out_path, &bytes)?;
    writeln!(
        out,
        "delegated capability (AND `{query}`) written to {out_path} ({} bytes)",
        bytes.len()
    )?;
    Ok(())
}

fn cmd_search(args: &Args, out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let (system, saved) = load_deployment(args.require("deploy")?)?;
    let cap_bytes = fs::read(args.require("cap")?)?;
    let mut r = Reader::new(&cap_bytes);
    let cap = Capability::decode(system.params(), &mut r)
        .map_err(|e| CliError(format!("capability decode: {e}")))?;
    if args.positional.is_empty() {
        return Err(CliError("search needs at least one index file".into()));
    }
    // prepare the capability's Miller lines once for the whole scan
    let prepared = system.prepare_capability(&cap)?;
    let mut matches = 0usize;
    for path in &args.positional {
        let idx_bytes = fs::read(path)?;
        let mut r = Reader::new(&idx_bytes);
        let idx = EncryptedIndex::decode(system.params(), &mut r)
            .map_err(|e| CliError(format!("{path}: index decode: {e}")))?;
        let hit = system.search_prepared(&saved.pk, &prepared, &idx)?;
        if hit {
            matches += 1;
        }
        writeln!(out, "{path}: {}", if hit { "MATCH" } else { "-" })?;
    }
    writeln!(out, "{matches}/{} matched", args.positional.len())?;
    Ok(())
}

fn cmd_transform(args: &Args, out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let (system, saved) = load_deployment(args.require("deploy")?)?;
    let blinding = saved
        .blinding
        .ok_or_else(|| CliError("not an APKS+ deployment (no proxy secret)".into()))?;
    let in_bytes = fs::read(args.require("in")?)?;
    let mut r = Reader::new(&in_bytes);
    let partial = EncryptedIndex::decode(system.params(), &mut r)
        .map_err(|e| CliError(format!("index decode: {e}")))?;
    let share = ProxyTransformKey {
        r_inv: blinding
            .inv()
            .ok_or_else(|| CliError("degenerate blinding secret".into()))?,
    };
    let full = proxy_transform(&system, &share, &partial);
    let mut w = Writer::new();
    full.encode(system.params(), &mut w);
    let bytes = w.finish();
    let out_path = args.require("out")?;
    write_file(out_path, &bytes)?;
    writeln!(out, "transformed index written to {out_path}")?;
    Ok(())
}

fn cmd_stats(args: &Args, out: &mut dyn std::io::Write) -> Result<(), CliError> {
    use apks_authz::TrustedAuthority;
    use apks_cloud::CloudServer;
    use apks_core::{FieldValue, Record, Schema};

    let docs: usize = args.parsed("docs")?.unwrap_or(24);
    let mut rng = rng_from(args)?;

    // an in-memory illness/sex deployment: enough to exercise the whole
    // upload → capability → scan path and show what the telemetry layer
    // records for it
    let schema = Schema::builder()
        .flat_field("illness", 1)
        .flat_field("sex", 1)
        .build()?;
    let system = apks_core::ApksSystem::new(apks_curve::CurveParams::fast(), schema);
    let ta = TrustedAuthority::setup(system, &mut rng);
    let server = CloudServer::new(
        ta.system().clone(),
        ta.public_key().clone(),
        ta.ibs_params().clone(),
    );
    server.register_authority("ta");
    let illnesses = ["flu", "diabetes", "cancer"];
    let sexes = ["female", "male"];
    for i in 0..docs {
        let rec = Record::new(vec![
            FieldValue::text(illnesses[i % illnesses.len()]),
            FieldValue::text(sexes[i % sexes.len()]),
        ]);
        server.upload(ta.system().gen_index(ta.public_key(), &rec, &mut rng)?);
    }
    let cap = ta
        .issue_capability(
            &Query::new().equals("illness", "flu"),
            &QueryPolicy::default(),
            &mut rng,
        )
        .map_err(|e| CliError(e.to_string()))?;
    let (hits, stats) = server.search(&cap).map_err(|e| CliError(e.to_string()))?;
    let snap = server.metrics_snapshot();
    if args.has_flag("json") {
        writeln!(out, "{}", snap.to_json())?;
    } else {
        writeln!(
            out,
            "scanned {} docs: {} matched",
            stats.scanned,
            hits.len()
        )?;
        writeln!(out, "{}", snap.render())?;
        // the counter measured at the pairing layer must reproduce the
        // per-scan accounting exactly
        let telemetry = snap.counter("cloud.scan.pairings").unwrap_or(0);
        writeln!(
            out,
            "cross-check: SearchStats.pairings = {} vs telemetry cloud.scan.pairings = {} ({})",
            stats.pairings,
            telemetry,
            if stats.pairings as u64 == telemetry {
                "consistent"
            } else {
                "MISMATCH"
            }
        )?;
    }
    Ok(())
}

/// `apks store-stats --dir <path>`: open an on-disk paged segment
/// store and print its segment ledger and aggregate counters.
///
/// The deployment digest and page size are recovered from the first
/// segment's header (every later segment is then validated against
/// them), so the command works on any store directory without the
/// deployment file at hand.
fn cmd_store_stats(args: &Args, out: &mut dyn std::io::Write) -> Result<(), CliError> {
    use apks_store::{PagedStore, SegmentReader, StoreConfig};

    let dir = Path::new(args.require("dir")?);
    let mut segments: Vec<std::path::PathBuf> = fs::read_dir(dir)
        .map_err(|e| CliError(format!("{}: {e}", dir.display())))?
        .filter_map(|entry| {
            let path = entry.ok()?.path();
            let name = path.file_name()?.to_str()?;
            (name.starts_with("seg-") && name.ends_with(".apks")).then_some(path)
        })
        .collect();
    segments.sort();
    let first = segments
        .first()
        .ok_or_else(|| CliError(format!("{}: no segment files (seg-*.apks)", dir.display())))?;
    let header = *SegmentReader::open(first, None)
        .map_err(|e| CliError(format!("{}: {e}", first.display())))?
        .header();
    let config = StoreConfig {
        page_size: header.page_size as usize,
        ..StoreConfig::default()
    };
    let mut store =
        PagedStore::open(dir, header.schema_digest, config).map_err(|e| CliError(e.to_string()))?;
    let stats = store.stats().map_err(|e| CliError(e.to_string()))?;
    let digest = hex(&header.schema_digest);
    if args.has_flag("json") {
        writeln!(
            out,
            "{{\"dir\":{:?},\"schema_digest\":\"{digest}\",\"page_size\":{},\"segments\":{},\"pages\":{},\"cells\":{},\"puts\":{},\"tombstones\":{},\"indexed_docs\":{},\"bytes\":{},\"torn_tails\":{}}}",
            dir.display().to_string(),
            header.page_size,
            stats.segments,
            stats.pages,
            stats.cells,
            stats.puts,
            stats.tombstones,
            stats.indexed_docs,
            stats.bytes,
            stats.torn_tails
        )?;
        return Ok(());
    }
    writeln!(out, "store:    {}", dir.display())?;
    writeln!(out, "schema:   {digest}")?;
    writeln!(
        out,
        "format:   v{} pages of {} B",
        header.version, header.page_size
    )?;
    writeln!(
        out,
        "segments: {} ({} pages, {} bytes)",
        stats.segments, stats.pages, stats.bytes
    )?;
    writeln!(
        out,
        "cells:    {} ({} puts, {} tombstones)",
        stats.cells, stats.puts, stats.tombstones
    )?;
    writeln!(
        out,
        "indexed:  {} doc(s) point-addressable",
        stats.indexed_docs
    )?;
    writeln!(out, "torn:     {} tail(s) skipped", stats.torn_tails)?;
    Ok(())
}

/// `apks wire-sizes`: instantiate one of each wire type on a
/// representative deployment and print its exact serialized size next
/// to the paper's §VII closed forms.
fn cmd_wire_sizes(args: &Args, out: &mut dyn std::io::Write) -> Result<(), CliError> {
    use apks_authz::TrustedAuthority;
    use apks_core::{FieldValue, Record, Schema};
    use apks_wire::protocol::{SearchRequest, SearchResponse};
    use apks_wire::{CiphertextRecord, IngestBatch, MetricsWire, Request, Response, Wire, WireCtx};

    let mut rng = rng_from(args)?;
    let schema = Schema::builder()
        .flat_field("illness", 1)
        .flat_field("sex", 1)
        .build()?;
    let system = apks_core::ApksSystem::new(apks_curve::CurveParams::fast(), schema);
    let ta = TrustedAuthority::setup(system, &mut rng);
    let ctx = WireCtx::new(apks_curve::CurveParams::fast());

    let n0 = ta.system().n() + 3;
    let point = apks_curve::G1Affine::ENCODED_LEN;
    writeln!(out, "deployment: n0 = {n0}, compressed point = {point} B")?;
    writeln!(
        out,
        "paper \u{a7}VII: ciphertext 65(n0+1) = {} B + Gt element",
        point * (n0 + 1)
    )?;
    writeln!(out)?;

    let rec = Record::new(vec![FieldValue::text("flu"), FieldValue::text("female")]);
    let index = ta.system().gen_index(ta.public_key(), &rec, &mut rng)?;
    let cap = ta
        .issue_capability(
            &Query::new().equals("illness", "flu"),
            &QueryPolicy::default(),
            &mut rng,
        )
        .map_err(|e| CliError(e.to_string()))?;
    let record = CiphertextRecord {
        doc_id: 0,
        index: index.clone(),
    };
    let batch = IngestBatch {
        owner: "owner-a".into(),
        seq: 0,
        records: vec![index],
    };
    let search = SearchRequest {
        id: 0,
        deadline_expires_at: u64::MAX,
        pairing_budget: u64::MAX,
        doc_cost_ticks: 0,
        capability: cap.clone(),
    };
    let response = SearchResponse::default();
    let metrics = MetricsWire(apks_telemetry::MetricsRegistry::new().snapshot());

    let mut row = |name: &str, tag: u8, size: usize, actual: usize| -> Result<(), CliError> {
        debug_assert_eq!(size, actual);
        writeln!(out, "  {name:<22} tag {tag:#04x}  {size:>6} B")?;
        Ok(())
    };
    row(
        "SignedCapability",
        apks_authz::SignedCapability::TAG,
        cap.serialized_size(&ctx),
        cap.to_bytes(&ctx).len(),
    )?;
    row(
        "CiphertextRecord",
        CiphertextRecord::TAG,
        record.serialized_size(&ctx),
        record.to_bytes(&ctx).len(),
    )?;
    row(
        "IngestBatch[1]",
        IngestBatch::TAG,
        batch.serialized_size(&ctx),
        batch.to_bytes(&ctx).len(),
    )?;
    row(
        "SearchRequest",
        SearchRequest::TAG,
        search.serialized_size(&ctx),
        search.to_bytes(&ctx).len(),
    )?;
    row(
        "SearchResponse(empty)",
        SearchResponse::TAG,
        response.serialized_size(&ctx),
        response.to_bytes(&ctx).len(),
    )?;
    row(
        "MetricsWire(empty)",
        MetricsWire::TAG,
        metrics.serialized_size(&ctx),
        metrics.to_bytes(&ctx).len(),
    )?;
    let ping = Request::Ping;
    row(
        "Request::Ping",
        Request::TAG,
        ping.serialized_size(&ctx),
        ping.to_bytes(&ctx).len(),
    )?;
    let pong = Response::Pong;
    row(
        "Response::Pong",
        Response::TAG,
        pong.serialized_size(&ctx),
        pong.to_bytes(&ctx).len(),
    )?;
    writeln!(out)?;
    writeln!(
        out,
        "framing: {} B header (magic {:?} + u32 length), max payload {} B",
        apks_wire::FRAME_HEADER_LEN,
        core::str::from_utf8(&apks_wire::FRAME_MAGIC).unwrap_or("?"),
        apks_wire::MAX_FRAME_LEN
    )?;
    Ok(())
}

fn cmd_demo(args: &Args, out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let mut rng = rng_from(args)?;
    let schema =
        parse_schema("field age numeric 0 63 4 d=2\nfield sex flat d=1\nfield illness flat d=2")?;
    let system = apks_core::ApksSystem::new(apks_curve::CurveParams::fast(), schema);
    let (pk, msk) = system.setup(&mut rng);
    writeln!(out, "setup done (n = {})", system.n())?;
    let people = [
        "age=25,sex=female,illness=diabetes",
        "age=61,sex=male,illness=diabetes",
        "age=18,sex=female,illness=diabetes",
    ];
    let indexes: Vec<_> = people
        .iter()
        .map(|p| {
            let r = parse_record(system.schema(), p).unwrap();
            system.gen_index(&pk, &r, &mut rng).unwrap()
        })
        .collect();
    let q = Query::parse("age in [16,31] and sex = female and illness = diabetes")?;
    let cap = system.gen_cap(&pk, &msk, &q, &QueryPolicy::default(), &mut rng)?;
    for (p, idx) in people.iter().zip(&indexes) {
        let hit = system.search(&pk, &cap, idx)?;
        writeln!(out, "  {p}: {}", if hit { "MATCH" } else { "-" })?;
    }
    Ok(())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) fn run_strs(args: &[&str]) -> Result<String, CliError> {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut out = Vec::new();
        run(&owned, &mut out)?;
        Ok(String::from_utf8(out).unwrap())
    }

    pub(crate) fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("apks-cli-test-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn full_cli_flow() {
        let dir = tmpdir("flow");
        let schema = dir.join("s.schema");
        std::fs::write(
            &schema,
            "field age numeric 0 15 4 d=2\nfield sex flat d=1\n",
        )
        .unwrap();
        let deploy = dir.join("d.apks");
        let out = run_strs(&[
            "setup",
            "--schema",
            schema.to_str().unwrap(),
            "--out",
            deploy.to_str().unwrap(),
            "--seed",
            "1",
        ])
        .unwrap();
        assert!(out.contains("deployment written"));

        let out = run_strs(&["inspect", deploy.to_str().unwrap()]).unwrap();
        assert!(out.contains("APKS"));
        assert!(out.contains("age"));

        let idx_a = dir.join("a.idx");
        run_strs(&[
            "gen-index",
            "--deploy",
            deploy.to_str().unwrap(),
            "--record",
            "age=6,sex=female",
            "--out",
            idx_a.to_str().unwrap(),
            "--seed",
            "2",
        ])
        .unwrap();
        let idx_b = dir.join("b.idx");
        run_strs(&[
            "gen-index",
            "--deploy",
            deploy.to_str().unwrap(),
            "--record",
            "age=12,sex=male",
            "--out",
            idx_b.to_str().unwrap(),
            "--seed",
            "3",
        ])
        .unwrap();

        let cap = dir.join("cap.bin");
        run_strs(&[
            "gen-cap",
            "--deploy",
            deploy.to_str().unwrap(),
            "--query",
            "age in [4,7] and sex = female",
            "--out",
            cap.to_str().unwrap(),
            "--seed",
            "4",
        ])
        .unwrap();

        let out = run_strs(&[
            "search",
            "--deploy",
            deploy.to_str().unwrap(),
            "--cap",
            cap.to_str().unwrap(),
            idx_a.to_str().unwrap(),
            idx_b.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("a.idx: MATCH"));
        assert!(out.contains("b.idx: -"));
        assert!(out.contains("1/2 matched"));

        // delegation narrows further
        let cap2 = dir.join("cap2.bin");
        run_strs(&[
            "delegate",
            "--deploy",
            deploy.to_str().unwrap(),
            "--cap",
            cap.to_str().unwrap(),
            "--query",
            "age = 6",
            "--out",
            cap2.to_str().unwrap(),
            "--seed",
            "5",
        ])
        .unwrap();
        let out = run_strs(&[
            "search",
            "--deploy",
            deploy.to_str().unwrap(),
            "--cap",
            cap2.to_str().unwrap(),
            idx_a.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("MATCH"));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn plus_flow_with_transform() {
        let dir = tmpdir("plus");
        let schema = dir.join("s.schema");
        std::fs::write(&schema, "field kw flat d=1\n").unwrap();
        let deploy = dir.join("d.apks");
        run_strs(&[
            "setup",
            "--schema",
            schema.to_str().unwrap(),
            "--out",
            deploy.to_str().unwrap(),
            "--plus",
            "--seed",
            "1",
        ])
        .unwrap();
        let out = run_strs(&["inspect", deploy.to_str().unwrap()]).unwrap();
        assert!(out.contains("APKS+"));

        let partial = dir.join("p.idx");
        run_strs(&[
            "gen-index",
            "--deploy",
            deploy.to_str().unwrap(),
            "--record",
            "kw=x",
            "--out",
            partial.to_str().unwrap(),
            "--seed",
            "2",
        ])
        .unwrap();
        let cap = dir.join("cap.bin");
        run_strs(&[
            "gen-cap",
            "--deploy",
            deploy.to_str().unwrap(),
            "--query",
            "kw = x",
            "--out",
            cap.to_str().unwrap(),
            "--seed",
            "3",
        ])
        .unwrap();
        // untransformed: no match
        let out = run_strs(&[
            "search",
            "--deploy",
            deploy.to_str().unwrap(),
            "--cap",
            cap.to_str().unwrap(),
            partial.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("0/1 matched"));
        // transform, then it matches
        let full = dir.join("f.idx");
        run_strs(&[
            "transform",
            "--deploy",
            deploy.to_str().unwrap(),
            "--in",
            partial.to_str().unwrap(),
            "--out",
            full.to_str().unwrap(),
        ])
        .unwrap();
        let out = run_strs(&[
            "search",
            "--deploy",
            deploy.to_str().unwrap(),
            "--cap",
            cap.to_str().unwrap(),
            full.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("1/1 matched"));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn demo_runs() {
        let out = run_strs(&["demo", "--seed", "9"]).unwrap();
        assert!(out.contains("MATCH"));
    }

    #[test]
    fn stats_reports_consistent_pairing_counts() {
        let out = run_strs(&["stats", "--docs", "6", "--seed", "11"]).unwrap();
        assert!(out.contains("scanned 6 docs"));
        assert!(out.contains("cloud.scan.pairings"));
        assert!(out.contains("consistent"), "got:\n{out}");
        assert!(!out.contains("MISMATCH"));
    }

    #[test]
    fn store_stats_reads_a_store_directory() {
        use apks_store::{PagedStore, StoreConfig};

        let dir = tmpdir("store-stats");
        let config = StoreConfig {
            page_size: 256,
            segment_max_bytes: 1024,
        };
        let mut store = PagedStore::open(&dir, [5u8; 32], config).unwrap();
        for doc in 0..20u64 {
            store.put(doc, vec![0xAB; 32]).unwrap();
        }
        store.delete(3).unwrap();
        store.seal().unwrap();

        let out = run_strs(&["store-stats", "--dir", dir.to_str().unwrap()]).unwrap();
        assert!(
            out.contains("cells:    21 (20 puts, 1 tombstones)"),
            "got:\n{out}"
        );
        assert!(out.contains("pages of 256 B"));
        // 20 puts minus the one tombstoned doc stay point-addressable
        assert!(
            out.contains("indexed:  19 doc(s) point-addressable"),
            "got:\n{out}"
        );
        assert!(out.contains("torn:     0 tail(s) skipped"));

        let json = run_strs(&["store-stats", "--dir", dir.to_str().unwrap(), "--json"]).unwrap();
        assert!(json.trim_start().starts_with('{'));
        assert!(json.contains("\"puts\":20"));
        assert!(json.contains("\"tombstones\":1"));
        assert!(json.contains("\"indexed_docs\":19"));
        assert!(json.contains("\"page_size\":256"));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn store_stats_rejects_a_directory_without_segments() {
        let dir = tmpdir("store-stats-empty");
        let err = run_strs(&["store-stats", "--dir", dir.to_str().unwrap()]).unwrap_err();
        assert!(err.0.contains("no segment files"), "got: {}", err.0);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn stats_json_is_machine_readable() {
        let out = run_strs(&["stats", "--docs", "4", "--seed", "11", "--json"]).unwrap();
        assert!(out.trim_start().starts_with('{'));
        assert!(out.contains("\"counters\""));
        assert!(out.contains("\"cloud.scan.pairings\""));
        assert!(out.contains("\"histograms\""));
    }

    #[test]
    fn errors_are_reported() {
        assert!(run_strs(&[]).is_err());
        assert!(run_strs(&["frobnicate"]).is_err());
        assert!(run_strs(&["setup", "--schema"]).is_err()); // missing value
        assert!(run_strs(&["setup", "--out", "x"]).is_err()); // missing schema
        assert!(run_strs(&["inspect", "/nonexistent/path"]).is_err());
    }

    #[test]
    fn unknown_options_are_refused() {
        let err = run_strs(&["stats", "--dcos", "6"]).unwrap_err();
        assert!(err.0.contains("--dcos"), "got: {}", err.0);
        let err = run_strs(&["wire-sizes", "--seed", "1", "--verbose"]).unwrap_err();
        assert!(err.0.contains("--verbose"), "got: {}", err.0);
        // a command without positional arguments refuses one too
        assert!(run_strs(&["stats", "--json", "6"]).is_err());
    }

    #[test]
    fn malformed_seed_is_refused() {
        for cmd in ["stats", "demo", "wire-sizes"] {
            let err = run_strs(&[cmd, "--seed", "abc"]).unwrap_err();
            assert!(err.0.contains("--seed \"abc\""), "{cmd}: {}", err.0);
        }
        let err = run_strs(&["sim", "overload", "--seed", "-1"]).unwrap_err();
        assert!(err.0.contains("--seed"), "got: {}", err.0);
    }

    #[test]
    fn malformed_numeric_options_are_refused() {
        let err = run_strs(&["stats", "--docs", "abc"]).unwrap_err();
        assert!(err.0.contains("--docs \"abc\""), "got: {}", err.0);
        let err = run_strs(&["sim", "framed", "--arrivals", "1e3"]).unwrap_err();
        assert!(err.0.contains("--arrivals"), "got: {}", err.0);
    }

    #[test]
    fn flags_of_other_commands_are_refused() {
        for old in ["--overload", "--batch", "--replication"] {
            let err = run_strs(&["stats", old]).unwrap_err();
            assert!(err.0.contains("stats does not take"), "{old}: {}", err.0);
        }
        let err = run_strs(&["store-stats", "--dir", ".", "--plus"]).unwrap_err();
        assert!(err.0.contains("--plus"), "got: {}", err.0);
        let err = run_strs(&["sim", "overload", "--faulted"]).unwrap_err();
        assert!(
            err.0.contains("sim overload does not take --faulted"),
            "got: {}",
            err.0
        );
        assert!(run_strs(&["sim", "frobnicate"]).is_err());
        assert!(run_strs(&["sim"]).is_err());
    }

    #[test]
    fn help_prints_usage() {
        let out = run_strs(&["help"]).unwrap();
        assert!(out.contains("usage: apks"));
    }
}
