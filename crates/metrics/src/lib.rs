//! `hpcbd-metrics` — source-code size and boilerplate analysis.
//!
//! Reproduces the methodology behind Table III of the paper
//! (Sec. VI-A): for each paradigm's implementation of a benchmark,
//! count (1) total lines of code and (2) the lines that are
//! *distribution boilerplate* — setup/teardown, communicator and
//! cluster plumbing, explicit data movement — as opposed to the
//! algorithm itself. The paper's observation is that the paradigm's API
//! style, more than the language, dictates both numbers; the analyzer
//! runs over this repository's own per-paradigm benchmark sources.

#![warn(missing_docs)]

/// Code-size metrics for one implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodeStats {
    /// Non-blank, non-comment lines.
    pub total_loc: u32,
    /// Lines matched as distribution boilerplate.
    pub boilerplate_loc: u32,
}

impl CodeStats {
    /// Boilerplate share in percent (0 for empty files).
    pub fn boilerplate_pct(&self) -> f64 {
        if self.total_loc == 0 {
            0.0
        } else {
            100.0 * self.boilerplate_loc as f64 / self.total_loc as f64
        }
    }
}

/// What counts as boilerplate for one paradigm: any code line containing
/// one of these substrings is classified as distribution plumbing.
#[derive(Debug, Clone)]
pub struct BoilerplateSpec {
    /// Paradigm name for reporting.
    pub paradigm: &'static str,
    /// Substrings marking setup / communication / teardown lines.
    pub patterns: Vec<&'static str>,
}

impl BoilerplateSpec {
    /// MPI: communicator setup, explicit messaging and collectives,
    /// parallel I/O plumbing, placement.
    pub fn mpi() -> BoilerplateSpec {
        BoilerplateSpec {
            paradigm: "MPI",
            patterns: vec![
                "mpirun",
                "MpiJob",
                "Placement::",
                "barrier",
                ".send(",
                ".recv",
                "sendrecv",
                "allreduce",
                "bcast",
                "scatter",
                "gather",
                "alltoall",
                "file_open_all",
                "read_at_all",
                "read_chunked_all",
                "rank.rank()",
                "rank.size()",
                "pid_of",
                "Checkpointer",
            ],
        }
    }

    /// OpenMP: team/pool creation and schedule clauses (the pragmas);
    /// everything else is plain sequential code.
    pub fn openmp() -> BoilerplateSpec {
        BoilerplateSpec {
            paradigm: "OpenMP",
            patterns: vec![
                "OmpPool::new",
                "Schedule::",
                "num_threads",
                "critical",
                "OmpModel",
                "charge_region",
            ],
        }
    }

    /// OpenSHMEM: PE setup, symmetric allocation, one-sided ops.
    pub fn openshmem() -> BoilerplateSpec {
        BoilerplateSpec {
            paradigm: "OpenSHMEM",
            patterns: vec![
                "shmem_run",
                "Placement::",
                ".malloc",
                "barrier_all",
                ".put(",
                ".get(",
                "put_signal",
                "wait_signal",
                "sum_to_all",
                "broadcast",
                "collect(",
                "atomic_fetch_add",
                "pe.pe()",
                "pe.npes()",
            ],
        }
    }

    /// Spark: context/cluster setup and configuration; transformations
    /// are considered algorithm code (the paper credits Spark's API with
    /// making "the logical execution path match the actual code flow").
    pub fn spark() -> BoilerplateSpec {
        BoilerplateSpec {
            paradigm: "Spark",
            patterns: vec![
                "SparkCluster::",
                "SparkConfig",
                "with_hdfs",
                "hdfs_file",
                "scratch_file",
                ".run(",
                "persist(",
                "StorageLevel::",
                "executors_per_node",
            ],
        }
    }

    /// Hadoop: job configuration, input format registration, the
    /// mapper/reducer submission plumbing.
    pub fn hadoop() -> BoilerplateSpec {
        BoilerplateSpec {
            paradigm: "Hadoop",
            patterns: vec![
                "MrJobBuilder::",
                "JobConf",
                "HdfsConfig",
                ".conf(",
                ".hdfs(",
                ".combiner(",
                ".map_work(",
                ".reduce_work(",
                ".run(",
                "slots_per_node",
                "reduce_tasks",
                "InputFormat",
                "sample_records",
                "logical_scale",
                "record_work",
            ],
        }
    }
}

/// Whether a source line is code (not blank, not a pure comment).
fn is_code_line(line: &str) -> bool {
    let t = line.trim();
    !(t.is_empty() || t.starts_with("//") || t.starts_with("/*") || t.starts_with('*'))
}

/// Analyze one source text against a paradigm's boilerplate spec.
pub fn analyze_source(source: &str, spec: &BoilerplateSpec) -> CodeStats {
    let mut total = 0;
    let mut boiler = 0;
    for line in source.lines() {
        if !is_code_line(line) {
            continue;
        }
        total += 1;
        if spec.patterns.iter().any(|p| line.contains(p)) {
            boiler += 1;
        }
    }
    CodeStats {
        total_loc: total,
        boilerplate_loc: boiler,
    }
}

/// A `TABLE3-BEGIN` marker was found without its matching `TABLE3-END`.
///
/// Treated as a hard error rather than "region absent": silently
/// returning `None` here would make Table III drop a paradigm row
/// whenever a marker comment is truncated or mistyped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnterminatedRegion {
    /// Name of the region whose END marker is missing.
    pub region: String,
}

impl std::fmt::Display for UnterminatedRegion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "TABLE3-BEGIN: {} has no matching TABLE3-END marker",
            self.region
        )
    }
}

impl std::error::Error for UnterminatedRegion {}

/// Analyze a delimited region of a larger file: the lines between
/// `// TABLE3-BEGIN: <name>` and `// TABLE3-END: <name>` markers, which
/// is how the per-paradigm benchmark implementations in `hpcbd-core`
/// mark the code Table III measures.
///
/// Returns `Ok(None)` when the region does not appear in `source` at
/// all, and [`UnterminatedRegion`] when a BEGIN marker is never closed.
pub fn analyze_region(
    source: &str,
    region: &str,
    spec: &BoilerplateSpec,
) -> Result<Option<CodeStats>, UnterminatedRegion> {
    let begin = format!("TABLE3-BEGIN: {region}");
    let end = format!("TABLE3-END: {region}");
    let mut inside = false;
    let mut body = String::new();
    for line in source.lines() {
        if line.contains(&begin) {
            inside = true;
            continue;
        }
        if line.contains(&end) {
            return Ok(Some(analyze_source(&body, spec)));
        }
        if inside {
            body.push_str(line);
            body.push('\n');
        }
    }
    if inside {
        Err(UnterminatedRegion {
            region: region.to_string(),
        })
    } else {
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blank_and_comment_lines_ignored() {
        let src = "\n// comment\n/* block */\nlet x = 1;\n   \nlet y = 2;\n";
        let s = analyze_source(src, &BoilerplateSpec::spark());
        assert_eq!(s.total_loc, 2);
        assert_eq!(s.boilerplate_loc, 0);
    }

    #[test]
    fn boilerplate_patterns_match() {
        let src = "let out = mpirun(Placement::new(2, 2), |rank| {\n\
                   let v = data.len();\n\
                   rank.barrier();\n\
                   });";
        let s = analyze_source(src, &BoilerplateSpec::mpi());
        assert_eq!(s.total_loc, 4);
        assert_eq!(s.boilerplate_loc, 2);
        assert!((s.boilerplate_pct() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn region_extraction() {
        let src = "fn other() {}\n\
                   // TABLE3-BEGIN: demo\n\
                   let pool = OmpPool::new(8);\n\
                   let total = work();\n\
                   // TABLE3-END: demo\n\
                   fn after() {}\n";
        let s = analyze_region(src, "demo", &BoilerplateSpec::openmp())
            .unwrap()
            .unwrap();
        assert_eq!(s.total_loc, 2);
        assert_eq!(s.boilerplate_loc, 1);
        assert_eq!(
            analyze_region(src, "missing", &BoilerplateSpec::openmp()),
            Ok(None)
        );
    }

    #[test]
    fn unterminated_region_is_a_hard_error() {
        let src = "// TABLE3-BEGIN: demo\nlet pool = OmpPool::new(8);\n";
        let err = analyze_region(src, "demo", &BoilerplateSpec::openmp()).unwrap_err();
        assert_eq!(err.region, "demo");
        assert!(err.to_string().contains("no matching TABLE3-END"));
        // A different region name is simply absent, not unterminated.
        assert_eq!(
            analyze_region(src, "other", &BoilerplateSpec::openmp()),
            Ok(None)
        );
    }

    #[test]
    fn boilerplate_specs_cover_all_paradigms() {
        for spec in [
            BoilerplateSpec::mpi(),
            BoilerplateSpec::openmp(),
            BoilerplateSpec::openshmem(),
            BoilerplateSpec::spark(),
            BoilerplateSpec::hadoop(),
        ] {
            assert!(
                !spec.patterns.is_empty(),
                "{} has no patterns",
                spec.paradigm
            );
        }
    }

    #[test]
    fn nested_block_comments_and_strings_counted_as_code() {
        // The classifier is line-based by design: a string containing
        // "//" is still a code line.
        let s = analyze_source("let u = \"https://x\";", &BoilerplateSpec::spark());
        assert_eq!(s.total_loc, 1);
    }

    #[test]
    fn empty_file_has_zero_pct() {
        let s = analyze_source("", &BoilerplateSpec::hadoop());
        assert_eq!(s.boilerplate_pct(), 0.0);
    }
}
