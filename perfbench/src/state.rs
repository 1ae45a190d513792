//! The executor's state and command dispatch.

use std::collections::BTreeMap;
use std::sync::mpsc::Receiver;

use mt4g_core::report::{to_json_pretty, Report};
use mt4g_core::serve::{parse_request, Response, ServeEngine, ServeOptions};
use mt4g_core::suite::{
    execute_plan, merge_partials, normalize_report, report_header, DiscoveryPlan, Job, JobSpec,
    PartialReport, UnitResult, PARTIAL_FORMAT,
};
use mt4g_sim::device::CacheKind;
use mt4g_sim::gpu::Gpu;
use mt4g_sim::presets::Registry;

use crate::checks::{first_difference, validate_bytes, Verdict};
use crate::replay::Replays;

/// JSON string literal for `s`.
pub fn json_str(s: &str) -> String {
    serde_json::to_string(s).unwrap_or_else(|_| "\"?\"".to_string())
}

/// One cell: the request line that names it and the spec it resolves to.
struct Cell {
    line: String,
    spec: JobSpec,
}

/// The traced pass over one cell: realised device, plan, unit results.
struct Traced {
    cell: usize,
    gpu: Gpu,
    spec: JobSpec,
    plan: DiscoveryPlan,
    results: Vec<UnitResult>,
    report: Option<Report>,
}

/// An in-process serve engine, its response channel, and the cell each
/// submitted request id named.
struct Engine {
    engine: ServeEngine,
    rx: Receiver<Response>,
    sent: BTreeMap<u64, usize>,
}

/// Everything the command stream builds up.
#[derive(Default)]
pub struct Executor {
    cells: Vec<Cell>,
    /// Canonical cell descriptors, filled by `setup`.
    descriptors: Vec<String>,
    /// Report bytes of the measured run of each cell.
    measured: Vec<Option<String>>,
    traced: Option<Traced>,
    engine: Option<Engine>,
    replays: Replays,
}

type Reply = Result<String, String>;

fn arg<T: std::str::FromStr>(fields: &[&str], i: usize) -> Result<T, String> {
    fields
        .get(i)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("command {:?}: bad or missing argument {i}", fields[0]))
}

fn verdict_json(v: &Verdict) -> String {
    let notes: Vec<String> = v.notes.iter().map(|n| json_str(n)).collect();
    format!(
        ",\"passed\":{},\"checked\":{},\"mismatches\":{},\"notes\":[{}]",
        v.passed(),
        v.checked,
        v.mismatches,
        notes.join(",")
    )
}

fn identity_json(diff: Option<String>) -> Reply {
    Ok(format!(
        ",\"identical\":{},\"diff\":{}",
        diff.is_none(),
        json_str(&diff.unwrap_or_default())
    ))
}

fn runtime_json(bytes: &str) -> String {
    match serde_json::from_str::<Report>(bytes) {
        Ok(r) => format!(
            ",\"gpu_cycles\":{},\"clock_mhz\":{}",
            r.runtime.gpu_cycles, r.device.clock_mhz
        ),
        Err(_) => String::new(),
    }
}

impl Executor {
    /// Runs one command and returns the reply body (fields after `ok`).
    pub fn dispatch(&mut self, f: &[&str]) -> Reply {
        match f[0] {
            "ping" => Ok(String::new()),
            "cell" => self.add_cell(f.get(1).copied().unwrap_or("")),
            "setup" => self.setup(arg(f, 1)?),
            "reference" => self.reference(arg(f, 1)?),
            "run" => self.run_direct(arg(f, 1)?),
            "validate" => {
                let bytes: String = serde_json::from_str(f.get(2).copied().unwrap_or(""))
                    .map_err(|e| format!("validate: bytes are not a JSON string: {e}"))?;
                self.validate(arg(f, 1)?, bytes)
            }
            "resolve" => self.resolve(arg(f, 1)?),
            "plan" => self.plan(arg(f, 1)?),
            "unit" => self.unit(arg(f, 1)?),
            "merge" => self.merge(),
            "serialize" => self.serialize(),
            "engines" => self.engines(arg(f, 1)?, arg(f, 2)?),
            "engine_start" => self.engine_start(arg(f, 1)?),
            "handle" => self.handle(arg(f, 1)?),
            "drain" => self.drain(arg(f, 1)?),
            "hits" => self.hits(arg(f, 1)?),
            "engine_stop" => self.engine_stop(),
            "parse" => self.replays.parse(&self.lines(), arg(f, 1)?),
            "key" => self.replays.key(&self.descriptors, arg(f, 1)?),
            "get" => self
                .replays
                .cache_get(&self.descriptors, &self.measured, arg(f, 1)?),
            "write" => self.replays.write(&self.measured, arg(f, 1)?),
            "rng" => self.replays.rng(arg(f, 1)?),
            "noise" => self.replays.noise(arg(f, 1)?),
            "fa_prime" => self.replays.fa_prime(),
            "fa_laps" => self.replays.fa_laps(arg(f, 1)?),
            "sa_prime" => self.replays.sa_prime(),
            "sa_laps" => self.replays.sa_laps(arg(f, 1)?),
            "pchase_prep" => self.replays.pchase_prep(),
            "pchase" => {
                let ring = f.get(1).copied().unwrap_or("");
                self.replays.pchase(ring, arg(f, 2)?)
            }
            "ks" => self.replays.ks(arg(f, 1)?),
            "cpd" => self.replays.cpd(arg(f, 1)?),
            other => Err(format!("unknown command {other:?}")),
        }
    }

    fn lines(&self) -> Vec<String> {
        self.cells.iter().map(|c| c.line.clone()).collect()
    }

    fn cell(&self, i: usize) -> Result<&Cell, String> {
        self.cells.get(i).ok_or_else(|| format!("no cell {i}"))
    }

    fn add_cell(&mut self, line: &str) -> Reply {
        let spec = parse_request(line)
            .map_err(|e| e.message)?
            .to_spec(1)
            .map_err(|e| e.message)?;
        self.cells.push(Cell {
            line: line.to_string(),
            spec,
        });
        self.measured.push(None);
        Ok(format!(",\"index\":{}", self.cells.len() - 1))
    }

    /// Registry lookup, scenario realisation and planning for every cell,
    /// `reps` times over: the set-up a discovery or serve front end pays
    /// before running. Keeps the cells' cache descriptors.
    fn setup(&mut self, reps: usize) -> Reply {
        for _ in 0..reps {
            let mut descriptors = Vec::with_capacity(self.cells.len());
            for c in &self.cells {
                let job = c.spec.clone().resolve().map_err(|e| e.to_string())?;
                descriptors.push(job.cell());
            }
            self.descriptors = descriptors;
        }
        Ok(format!(",\"cells\":{}", self.cells.len()))
    }

    /// A direct `Job::run` of cell `i`: the reference bytes served
    /// responses must equal, validated against planted truth.
    fn reference(&mut self, i: usize) -> Reply {
        let spec = self.cell(i)?.spec.clone();
        let out = spec
            .clone()
            .resolve()
            .map_err(|e| e.to_string())?
            .run()
            .map_err(|e| e.to_string())?;
        let v = validate_bytes(&spec, &out.bytes);
        let body = format!(
            "{}{},\"bytes\":{}",
            verdict_json(&v),
            runtime_json(&out.bytes),
            json_str(&out.bytes)
        );
        self.measured[i] = Some(out.bytes);
        Ok(body)
    }

    /// An untraced direct `Job::run` of cell `i`, compared with the
    /// measured run's bytes as `serialize` compares the traced pass's.
    fn run_direct(&mut self, i: usize) -> Reply {
        let out = self
            .cell(i)?
            .spec
            .clone()
            .resolve()
            .map_err(|e| e.to_string())?
            .run()
            .map_err(|e| e.to_string())?;
        let want = self.measured[i]
            .as_deref()
            .ok_or("no measured bytes for the cell")?;
        identity_json(first_difference(want, &out.bytes))
    }

    /// Validates report bytes produced elsewhere (the daemon) and keeps
    /// them as cell `i`'s measured bytes.
    fn validate(&mut self, i: usize, bytes: String) -> Reply {
        let v = validate_bytes(&self.cell(i)?.spec, &bytes);
        let body = format!("{}{}", verdict_json(&v), runtime_json(&bytes));
        self.measured[i] = Some(bytes);
        Ok(body)
    }

    fn resolve(&mut self, i: usize) -> Reply {
        let job: Job = self
            .cell(i)?
            .spec
            .clone()
            .resolve()
            .map_err(|e| e.to_string())?;
        Ok(format!(",\"fingerprint\":{}", json_str(job.fingerprint())))
    }

    /// Realises cell `i`'s device and plans it, for unit-by-unit execution.
    fn plan(&mut self, i: usize) -> Reply {
        let spec = self.cell(i)?.spec.clone();
        let entry = Registry::global()
            .get(&spec.gpu)
            .ok_or_else(|| format!("unknown preset {}", spec.gpu))?;
        let gpu = spec
            .scenario
            .realize(entry.gpu())
            .map_err(|e| e.to_string())?;
        let plan = DiscoveryPlan::new(&gpu, &spec.cfg);
        let units: Vec<String> = plan
            .units()
            .iter()
            .map(|u| {
                let deps: Vec<String> = u.deps.iter().map(|d| d.to_string()).collect();
                format!(
                    "{{\"label\":{},\"deps\":[{}]}}",
                    json_str(&u.label),
                    deps.join(",")
                )
            })
            .collect();
        let body = format!(",\"units\":[{}]", units.join(","));
        self.traced = Some(Traced {
            cell: i,
            gpu,
            spec,
            plan,
            results: Vec::new(),
            report: None,
        });
        Ok(body)
    }

    fn traced(&mut self) -> Result<&mut Traced, String> {
        self.traced
            .as_mut()
            .ok_or_else(|| "no planned cell".to_string())
    }

    /// `execute_plan` for one unit. Dependencies outside the selection are
    /// recomputed inside the call, exactly as a shard would; the reply
    /// carries the unit's own wall time as `execute_plan` records it.
    fn unit(&mut self, u: usize) -> Reply {
        let t = self.traced()?;
        if u >= t.plan.len() {
            return Err(format!("unit {u} outside a plan of {}", t.plan.len()));
        }
        let mut results = execute_plan(&t.gpu, &t.spec.cfg, &t.plan, &[u], t.spec.cfg.jobs);
        let r = results.pop().ok_or("execute_plan returned no result")?;
        let body = format!(
            ",\"kernels\":{},\"loads\":{},\"wall_ns\":{}",
            r.kernels_launched, r.loads_executed, r.wall_nanos
        );
        t.results.push(r);
        Ok(body)
    }

    /// Folds the unit results through `merge_partials` and normalises.
    fn merge(&mut self) -> Reply {
        let t = self.traced()?;
        let (device, compute) = report_header(&t.gpu);
        let has_l3 = t.gpu.config.cache(CacheKind::L3).is_some();
        let partial = PartialReport {
            format: PARTIAL_FORMAT,
            fingerprint: t.plan.fingerprint().to_string(),
            shard_index: 1,
            shard_count: 1,
            plan_len: t.plan.len(),
            plan_labels: t.plan.units().iter().map(|u| u.label.clone()).collect(),
            has_l3,
            device,
            compute,
            results: std::mem::take(&mut t.results),
        };
        let mut report = merge_partials(&[partial]).map_err(|e| e.to_string())?;
        normalize_report(&mut report, has_l3);
        t.report = Some(report);
        Ok(String::new())
    }

    /// Serialises the merged report and compares it with the measured
    /// run's bytes: the byte-identity property of plan/execute/merge.
    fn serialize(&mut self) -> Reply {
        let t = self.traced.take().ok_or("no planned cell")?;
        let report = t.report.ok_or("serialize before merge")?;
        let bytes = to_json_pretty(&report).map_err(|e| e.to_string())?;
        let want = self.measured[t.cell]
            .as_deref()
            .ok_or("no measured bytes for the traced cell")?;
        identity_json(first_difference(want, &bytes))
    }

    /// Engine start as `mt4g serve --workers 1` pays it: `reps` times
    /// over, a `ServeEngine` is built and shut down again.
    fn engines(&mut self, reps: usize, cache_cap: usize) -> Reply {
        for _ in 0..reps {
            let (engine, _rx) = new_engine(cache_cap);
            engine.shutdown();
        }
        Ok(format!(",\"ops\":{reps}"))
    }

    fn engine_start(&mut self, cache_cap: usize) -> Reply {
        let (engine, rx) = new_engine(cache_cap);
        self.engine = Some(Engine {
            engine,
            rx,
            sent: BTreeMap::new(),
        });
        Ok(String::new())
    }

    /// Feeds cell `i`'s request line to `handle_line` under a fresh id.
    fn submit(&mut self, i: usize) -> Result<(), String> {
        let line = self.cell(i)?.line.clone();
        let e = self.engine.as_mut().ok_or("no engine")?;
        let id = e.sent.len() as u64 + 1;
        e.sent.insert(id, i);
        e.engine.handle_line(&with_id(&line, id));
        Ok(())
    }

    /// One `handle_line` for cell `i` (returns once admitted or answered).
    fn handle(&mut self, i: usize) -> Reply {
        self.submit(i)?;
        Ok(String::new())
    }

    /// `n` `handle_line` calls cycling over the cells. The responses wait
    /// in the channel for `drain`, so the batch times `handle_line` alone.
    fn hits(&mut self, n: usize) -> Reply {
        for k in 0..n {
            self.submit(k % self.cells.len())?;
        }
        Ok(String::new())
    }

    /// Collects `k` responses and checks each against the measured bytes
    /// of the cell its request named.
    fn drain(&mut self, k: usize) -> Reply {
        let e = self.engine.as_mut().ok_or("no engine")?;
        let mut cached = 0usize;
        for _ in 0..k {
            let resp = e.rx.recv().map_err(|_| "engine closed early")?;
            cached += resp.cached as usize;
            if !resp.ok {
                return Err(format!("request {} failed: {:?}", resp.id, resp.error));
            }
            let cell = e.sent.get(&resp.id).ok_or("response to an unknown id")?;
            let want = self.measured[*cell]
                .as_deref()
                .ok_or("response before the cell was measured")?;
            if let Some(d) = first_difference(want, resp.report.as_deref().unwrap_or("")) {
                return Err(format!("response {}: {d}", resp.id));
            }
        }
        Ok(format!(",\"cached\":{cached}"))
    }

    fn engine_stop(&mut self) -> Reply {
        let e = self.engine.take().ok_or("no engine")?;
        let s = e.engine.shutdown();
        Ok(format!(
            ",\"hits\":{},\"misses\":{},\"coalesced\":{},\"evictions\":{}",
            s.hits, s.misses, s.coalesced, s.cache_evictions
        ))
    }
}

/// A serve engine with the daemon's benchmark settings: one worker,
/// queue of 128, one discovery thread per job.
fn new_engine(cache_cap: usize) -> (ServeEngine, Receiver<Response>) {
    ServeEngine::new(ServeOptions {
        workers: 1,
        queue_cap: 128,
        cache_cap,
        job_threads: 1,
    })
}

/// Inserts `"id":N` at the front of a request line's JSON object.
fn with_id(line: &str, id: u64) -> String {
    format!("{{\"id\":{id},{}", &line[1..])
}
