//! The correctness gate: every served kernel is checked, and every
//! failure is counted against the requests attempted.
//!
//! Per response: it shipped a kernel, and its configuration, Mflops and
//! assembly equal every earlier response for the same family (each step
//! budget of a family serves the same winner, so this covers "identical
//! for the same key"). Per family, once per run: the winning
//! configuration is rebuilt through its public `tune` config, its
//! `emit_att` text must equal the served assembly, and the kernel runs
//! on the functional simulator against a reference at a shape of
//! `2·factor+1` per unrolled dimension, so remainder paths run too.

use crate::family::{Family, Rng};
use crate::wire::Reply;
use augem::asm::AsmKernel;
use augem::blas::naive;
use augem::obs::Json;
use augem::sim::{FuncSim, SimValue};
use augem::tune::{gemm_candidates, vector_candidates};
use augem::DlaKernel;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// Largest accepted norm-wise relative error against the reference.
pub const MAX_REL_ERR: f64 = 1e-12;

/// What a family's responses have served so far.
#[derive(Debug, Clone)]
pub struct Winner {
    pub config: String,
    /// Mflops as rendered on the wire.
    pub mflops: String,
    /// Decoded assembly text, once any response carried it.
    pub asm: Option<String>,
    asm_hash: Option<u64>,
}

#[derive(Debug, Default)]
pub struct Gate {
    winners: HashMap<Family, Winner>,
    failures: Vec<String>,
}

fn hash(text: &str) -> u64 {
    let mut h = DefaultHasher::new();
    text.hash(&mut h);
    h.finish()
}

impl Gate {
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failures.push(why.into());
    }

    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    pub fn winner(&self, family: Family) -> Option<&Winner> {
        self.winners.get(&family)
    }

    /// Checks one kernel response for `family` (`line` is the raw line
    /// `reply` was scanned from). Returns whether it passed.
    pub fn check(&mut self, family: Family, reply: &Reply, line: &str) -> bool {
        let who = format!("{} r{}", family.name(), reply.id.unwrap_or(u64::MAX));
        if !reply.shipped() {
            self.fail(format!("{who}: status {:?}", reply.status));
            return false;
        }
        let (Some(config), Some(mflops)) = (reply.config, reply.mflops) else {
            self.fail(format!("{who}: no config or mflops"));
            return false;
        };
        let winner = self.winners.entry(family).or_insert_with(|| Winner {
            config: config.to_string(),
            mflops: mflops.to_string(),
            asm: None,
            asm_hash: None,
        });
        if winner.config != config || winner.mflops != mflops {
            let why = format!(
                "{who}: served {config} at {mflops} Mflops, earlier {} at {}",
                winner.config, winner.mflops
            );
            self.fail(why);
            return false;
        }
        let Some(asm) = reply.asm else {
            return true;
        };
        let h = hash(asm);
        match winner.asm_hash {
            Some(seen) if seen == h => true,
            Some(_) => {
                self.fail(format!("{who}: assembly differs from an earlier response"));
                false
            }
            None => {
                let decoded = Json::parse(line)
                    .ok()
                    .and_then(|doc| doc.get("asm").and_then(Json::as_str).map(String::from));
                match decoded {
                    Some(text) => {
                        winner.asm = Some(text);
                        winner.asm_hash = Some(h);
                        true
                    }
                    None => {
                        self.fail(format!("{who}: unparseable response line"));
                        false
                    }
                }
            }
        }
    }

    /// Rebuilds and runs every winner whose assembly was served; returns
    /// how many were checked. Failures are counted in the gate.
    pub fn verify_winners(&mut self, seed: u64) -> u64 {
        let mut families: Vec<Family> = self.winners.keys().copied().collect();
        families.sort_by_key(|f| f.name());
        let mut rng = Rng::new(seed, 9);
        let mut checked = 0;
        for family in families {
            let w = &self.winners[&family];
            let Some(served) = w.asm.clone() else {
                continue;
            };
            checked += 1;
            if let Err(why) = verify_winner(family, &w.config, &served, &mut rng) {
                self.fail(format!("{}: {why}", family.name()));
            }
        }
        checked
    }
}

/// The unroll factors a winner's remainder-covering shape derives from.
#[derive(Debug, Clone, Copy)]
enum Shape {
    Gemm { mu: usize, nu: usize, ku: usize },
    Vector { unroll: usize },
}

/// Rebuilds the configuration tagged `config` for `family`.
fn rebuild(family: Family, config: &str) -> Result<(AsmKernel, Shape), String> {
    let spec = family.machine.spec();
    let built = match family.vector_kernel() {
        None => gemm_candidates(&spec)
            .into_iter()
            .find(|c| c.tag() == config)
            .map(|c| {
                let shape = Shape::Gemm {
                    mu: c.mu,
                    nu: c.nu,
                    ku: c.ku,
                };
                (c.build(&spec), shape)
            }),
        Some(vk) => vector_candidates(vk, &spec)
            .into_iter()
            .find(|c| c.tag() == config)
            .map(|c| (c.build(&spec), Shape::Vector { unroll: c.unroll })),
    };
    let (asm, shape) = built.ok_or_else(|| format!("no candidate is tagged {config:?}"))?;
    Ok((
        asm.map_err(|e| format!("rebuild of {config} failed: {e}"))?,
        shape,
    ))
}

fn verify_winner(family: Family, config: &str, served: &str, rng: &mut Rng) -> Result<(), String> {
    let (asm, shape) = rebuild(family, config)?;
    let spec = family.machine.spec();
    if augem::asm::emit::emit_att(&asm, &spec.isa) != served {
        return Err(format!(
            "rebuilt {config} does not emit the served assembly"
        ));
    }
    let err = run_against_reference(family.kernel, shape, &asm, &spec.isa, rng)?;
    if err > MAX_REL_ERR {
        return Err(format!(
            "{config}: relative error {err:e} over {MAX_REL_ERR:e}"
        ));
    }
    Ok(())
}

/// Runs `asm` on seeded inputs and returns its norm-wise relative error
/// against `augem_blas::naive` (gemm, gemv, ger) or a one-line reference.
fn run_against_reference(
    kernel: DlaKernel,
    shape: Shape,
    asm: &AsmKernel,
    isa: &augem::machine::IsaSet,
    rng: &mut Rng,
) -> Result<f64, String> {
    use SimValue::{Array, Int, F64};
    let mut fill = |n: usize| -> Vec<f64> { (0..n).map(|_| 0.5 + rng.unit()).collect() };
    let int = |v: usize| Int(v as i64);
    let (args, out, want) = match (kernel, shape) {
        (DlaKernel::Gemm, Shape::Gemm { mu, nu, ku }) => {
            let (mr, nr, kc) = (2 * mu + 1, 2 * nu + 1, 2 * ku + 1);
            let (mc, ldb, ldc) = (mr + 1, nr + 2, mr + 3);
            let (a, b, c) = (fill(mc * kc), fill(kc * ldb), fill(ldc * nr));
            // The micro-kernel reads B as B[l*LDB + j]; naive::gemm wants
            // column-major B[j*ldb + l].
            let mut bt = vec![0.0; kc * nr];
            for l in 0..kc {
                for j in 0..nr {
                    bt[j * kc + l] = b[l * ldb + j];
                }
            }
            let mut want = c.clone();
            naive::gemm(mr, nr, kc, 1.0, &a, mc, &bt, kc, 1.0, &mut want, ldc);
            let args = vec![int(mr), int(nr), int(kc), int(mc), int(ldb), int(ldc)];
            (
                args.into_iter()
                    .chain([Array(a), Array(b), Array(c)])
                    .collect(),
                2,
                want,
            )
        }
        (DlaKernel::Gemv, Shape::Vector { unroll }) => {
            let (m, n) = (2 * unroll + 1, 3);
            let lda = m + 1;
            let (a, x, y) = (fill(lda * n), fill(n), fill(m));
            let mut want = y.clone();
            naive::gemv(m, n, 1.0, &a, lda, &x, 1.0, &mut want);
            (
                vec![int(m), int(n), int(lda), Array(a), Array(x), Array(y)],
                2,
                want,
            )
        }
        (DlaKernel::Ger, Shape::Vector { unroll }) => {
            let (m, n) = (2 * unroll + 1, 3);
            let lda = m + 1;
            let (x, y, a) = (fill(m), fill(n), fill(lda * n));
            let mut want = a.clone();
            naive::ger(m, n, 1.0, &x, &y, &mut want, lda);
            (
                vec![int(m), int(n), int(lda), Array(x), Array(y), Array(a)],
                2,
                want,
            )
        }
        (DlaKernel::Axpy, Shape::Vector { unroll }) => {
            let n = 2 * unroll + 1;
            let (alpha, x, y) = (fill(1)[0], fill(n), fill(n));
            let want = y.iter().zip(&x).map(|(y, x)| y + x * alpha).collect();
            (vec![int(n), F64(alpha), Array(x), Array(y)], 1, want)
        }
        (DlaKernel::Dot, Shape::Vector { unroll }) => {
            let n = 2 * unroll + 1;
            let (x, y, r) = (fill(n), fill(n), fill(1));
            let want = vec![r[0] + x.iter().zip(&y).map(|(x, y)| x * y).sum::<f64>()];
            (vec![int(n), Array(x), Array(y), Array(r)], 2, want)
        }
        (DlaKernel::Scal, Shape::Vector { unroll }) => {
            let n = 2 * unroll + 1;
            let (alpha, y) = (fill(1)[0], fill(n));
            let want = y.iter().map(|y| y * alpha).collect();
            (vec![int(n), F64(alpha), Array(y)], 0, want)
        }
        (k, s) => return Err(format!("{} cannot have shape {s:?}", k.name())),
    };
    let (arrays, _) = FuncSim::new(*isa)
        .run(asm, args)
        .map_err(|e| format!("functional simulation failed: {e}"))?;
    let got = arrays.get(out).ok_or("kernel returned too few arrays")?;
    if got.len() != want.len() {
        return Err(format!("{} outputs, expected {}", got.len(), want.len()));
    }
    let scale = want.iter().fold(0.0f64, |m, w| m.max(w.abs()));
    let diff = got
        .iter()
        .zip(&want)
        .fold(0.0f64, |m, (g, w)| m.max((g - w).abs()));
    Ok(diff / scale.max(f64::MIN_POSITIVE))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::Machine;
    use augem_serve::{Response, Status};

    fn served(config: &str, asm: &str) -> String {
        let mut r = Response::new("r1", Status::Ok);
        r.config_tag = Some(config.to_string());
        r.mflops = Some(1234.5);
        r.asm = Some(asm.to_string());
        r.to_json().render()
    }

    fn real_winner(family: Family) -> (String, String) {
        let spec = family.machine.spec();
        let c = vector_candidates(family.vector_kernel().unwrap(), &spec)[1];
        let asm = c.build(&spec).unwrap();
        (c.tag(), augem::asm::emit::emit_att(&asm, &spec.isa))
    }

    #[test]
    fn a_real_kernel_passes_every_check() {
        let family = Family {
            kernel: DlaKernel::Axpy,
            machine: Machine::Piledriver,
        };
        let (config, asm) = real_winner(family);
        let mut gate = Gate::default();
        let line = served(&config, &asm);
        assert!(gate.check(family, &crate::wire::scan(&line), &line));
        assert!(gate.check(family, &crate::wire::scan(&line), &line));
        assert_eq!(gate.verify_winners(1), 1);
        assert_eq!(gate.failed(), 0, "{:?}", gate.failures());
    }

    #[test]
    fn every_kernel_family_matches_its_reference() {
        for family in Family::all() {
            let spec = family.machine.spec();
            let (config, asm) = match family.vector_kernel() {
                None => {
                    let c = gemm_candidates(&spec)[0];
                    (c.tag(), c.build(&spec).unwrap())
                }
                Some(vk) => {
                    let c = vector_candidates(vk, &spec)[0];
                    (c.tag(), c.build(&spec).unwrap())
                }
            };
            let text = augem::asm::emit::emit_att(&asm, &spec.isa);
            verify_winner(family, &config, &text, &mut Rng::new(5, 0))
                .unwrap_or_else(|e| panic!("{}: {e}", family.name()));
        }
    }

    #[test]
    fn a_tampered_response_is_counted_as_a_failure() {
        let family = Family {
            kernel: DlaKernel::Scal,
            machine: Machine::SandyBridge,
        };
        let (config, asm) = real_winner(family);
        let good = served(&config, &asm);

        // Same family, different assembly: caught per response.
        let mut gate = Gate::default();
        assert!(gate.check(family, &crate::wire::scan(&good), &good));
        let tampered = served(&config, &asm.replacen("vmulpd", "vaddpd", 1));
        assert!(!gate.check(family, &crate::wire::scan(&tampered), &tampered));
        assert_eq!(gate.failed(), 1);

        // The first response already tampered: caught by the rebuild.
        let mut gate = Gate::default();
        assert!(gate.check(family, &crate::wire::scan(&tampered), &tampered));
        gate.verify_winners(1);
        assert_eq!(gate.failed(), 1, "{:?}", gate.failures());

        // A different configuration or a failed status is a failure too.
        let mut gate = Gate::default();
        gate.check(family, &crate::wire::scan(&good), &good);
        let other = served("dscal u2 pf=off sched=true", &asm);
        assert!(!gate.check(family, &crate::wire::scan(&other), &other));
        let err = Response::error("r2", "boom").to_json().render();
        assert!(!gate.check(family, &crate::wire::scan(&err), &err));
        assert_eq!(gate.failed(), 2);
    }
}
