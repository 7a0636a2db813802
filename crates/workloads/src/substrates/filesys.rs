//! A synthetic in-memory file tree for the pfscan benchmark.
//!
//! The paper measured pfscan over a home directory held entirely in
//! the OS buffer cache ("we were able to eliminate file system
//! effects"); an in-memory tree reproduces exactly that setup.

use sharc_testkit::rng::{Rng, Xoshiro256pp};

/// One synthetic file.
#[derive(Debug, Clone)]
pub struct File {
    pub path: String,
    pub content: Vec<u8>,
}

/// A deterministic synthetic file tree.
#[derive(Debug, Clone)]
pub struct SynthFs {
    files: Vec<File>,
}

/// Configuration for tree generation.
#[derive(Debug, Clone, Copy)]
pub struct FsConfig {
    pub n_dirs: usize,
    pub files_per_dir: usize,
    pub file_size: usize,
    /// The needle is planted roughly once per this many bytes.
    pub needle_every: usize,
    pub seed: u64,
}

impl Default for FsConfig {
    fn default() -> Self {
        FsConfig {
            n_dirs: 8,
            files_per_dir: 12,
            file_size: 8 * 1024,
            needle_every: 4096,
            seed: 0xF5,
        }
    }
}

const WORDS: &[&str] = &[
    "the", "quick", "brown", "fox", "lazy", "dog", "lorem", "ipsum", "data", "race", "thread",
    "lock", "shared", "private", "cast", "mode",
];

impl SynthFs {
    /// Generates a tree; occurrences of `needle` are planted at a
    /// known rate so scans have a verifiable answer.
    pub fn generate(cfg: FsConfig, needle: &str) -> SynthFs {
        let mut rng = Xoshiro256pp::seed_from_u64(cfg.seed);
        let mut files = Vec::new();
        for d in 0..cfg.n_dirs {
            for f in 0..cfg.files_per_dir {
                let path = format!("/home/user/dir{d}/file{f}.txt");
                let mut content = Vec::with_capacity(cfg.file_size);
                while content.len() < cfg.file_size {
                    if cfg.needle_every > 0 && rng.gen_range(0..cfg.needle_every) < WORDS[0].len() {
                        content.extend_from_slice(needle.as_bytes());
                    } else {
                        let w = WORDS[rng.gen_range(0..WORDS.len())];
                        content.extend_from_slice(w.as_bytes());
                    }
                    content.push(b' ');
                }
                content.truncate(cfg.file_size);
                files.push(File { path, content });
            }
        }
        SynthFs { files }
    }

    /// Every file, in path order.
    pub fn files(&self) -> &[File] {
        &self.files
    }

    /// All file paths (the path-producer thread's work list).
    pub fn paths(&self) -> Vec<String> {
        self.files.iter().map(|f| f.path.clone()).collect()
    }

    /// Looks up a file's content by path.
    pub fn read(&self, path: &str) -> Option<&[u8]> {
        self.files
            .iter()
            .find(|f| f.path == path)
            .map(|f| f.content.as_slice())
    }

    /// File count.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// True if the tree has no files.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// Total bytes across all files.
    pub fn total_bytes(&self) -> usize {
        self.files.iter().map(|f| f.content.len()).sum()
    }

    /// Reference scan: total needle occurrences (test oracle).
    pub fn count_occurrences(&self, needle: &[u8]) -> usize {
        self.files
            .iter()
            .map(|f| count_in(&f.content, needle))
            .sum()
    }
}

/// Counts (possibly overlapping) occurrences of `needle` in `hay`.
pub fn count_in(hay: &[u8], needle: &[u8]) -> usize {
    if needle.is_empty() || hay.len() < needle.len() {
        return 0;
    }
    let mut count = 0;
    for i in 0..=hay.len() - needle.len() {
        if &hay[i..i + needle.len()] == needle {
            count += 1;
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = SynthFs::generate(FsConfig::default(), "needle");
        let b = SynthFs::generate(FsConfig::default(), "needle");
        assert_eq!(a.paths(), b.paths());
        assert_eq!(a.total_bytes(), b.total_bytes());
        assert_eq!(
            a.count_occurrences(b"needle"),
            b.count_occurrences(b"needle")
        );
    }

    #[test]
    fn needles_are_planted() {
        let fs = SynthFs::generate(FsConfig::default(), "needle");
        assert!(fs.count_occurrences(b"needle") > 0);
    }

    #[test]
    fn read_by_path() {
        let fs = SynthFs::generate(FsConfig::default(), "x");
        let p = fs.paths()[0].clone();
        assert!(fs.read(&p).is_some());
        assert!(fs.read("/nonexistent").is_none());
    }

    #[test]
    fn count_in_overlapping() {
        assert_eq!(count_in(b"aaaa", b"aa"), 3);
        assert_eq!(count_in(b"abc", b""), 0);
        assert_eq!(count_in(b"ab", b"abc"), 0);
    }

    #[test]
    fn sizes_match_config() {
        let cfg = FsConfig {
            n_dirs: 2,
            files_per_dir: 3,
            file_size: 100,
            ..FsConfig::default()
        };
        let fs = SynthFs::generate(cfg, "n");
        assert_eq!(fs.len(), 6);
        assert_eq!(fs.total_bytes(), 600);
    }
}
