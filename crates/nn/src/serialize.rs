//! Binary (de)serialization of matrices and parameter sets.
//!
//! A minimal, dependency-free format: magic + version header, then each
//! matrix as `rows: u32, cols: u32, data: [f32 LE]`. Used to persist model
//! weights (the paper's workflow ships pre-trained (S)/(T) modules from the
//! cloud provider to users).

use crate::matrix::Matrix;
use std::io::{self, Read, Write};

/// Magic + version prefix of a raw matrix payload.
const MAGIC: &[u8; 8] = b"MTMLFNN\x01";

/// Writes a set of matrices.
pub fn write_matrices<W: Write>(w: W, matrices: &[Matrix]) -> io::Result<()> {
    let refs: Vec<&Matrix> = matrices.iter().collect();
    save_parameters(w, &refs)
}

fn write_matrix<W: Write>(w: &mut W, m: &Matrix) -> io::Result<()> {
    w.write_all(&(m.rows() as u32).to_le_bytes())?;
    w.write_all(&(m.cols() as u32).to_le_bytes())?;
    for &v in m.data() {
        w.write_all(&v.to_le_bytes())?;
    }
    Ok(())
}

/// Reads a set of matrices written by [`write_matrices`].
pub fn read_matrices<R: Read>(mut r: R) -> io::Result<Vec<Matrix>> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not an mtmlf weight file (bad magic)",
        ));
    }
    let mut count_buf = [0u8; 8];
    r.read_exact(&mut count_buf)?;
    let count = u64::from_le_bytes(count_buf) as usize;
    let mut out = Vec::with_capacity(count.min(1 << 20));
    for _ in 0..count {
        let mut dim = [0u8; 4];
        r.read_exact(&mut dim)?;
        let rows = u32::from_le_bytes(dim) as usize;
        r.read_exact(&mut dim)?;
        let cols = u32::from_le_bytes(dim) as usize;
        let mut data = vec![0f32; rows * cols];
        let mut buf = [0u8; 4];
        for v in &mut data {
            r.read_exact(&mut buf)?;
            *v = f32::from_le_bytes(buf);
        }
        out.push(Matrix::from_vec(rows, cols, data));
    }
    Ok(out)
}

/// Saves the values of a parameter list.
pub fn save_parameters<W: Write>(mut w: W, params: &[&Matrix]) -> io::Result<()> {
    w.write_all(MAGIC)?;
    w.write_all(&(params.len() as u64).to_le_bytes())?;
    for m in params {
        write_matrix(&mut w, m)?;
    }
    Ok(())
}

/// Loads previously saved values into an existing parameter list. The
/// count and every shape must match (the model architecture is part of the
/// caller's configuration, not the weight file).
pub fn load_parameters<R: Read>(r: R, params: Vec<&mut Matrix>) -> io::Result<()> {
    let matrices = read_matrices(r)?;
    if matrices.len() != params.len() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "parameter count mismatch: file has {}, model has {}",
                matrices.len(),
                params.len()
            ),
        ));
    }
    for (p, m) in params.iter().zip(&matrices) {
        if p.shape() != m.shape() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "shape mismatch: file {:?}, model {:?}",
                    m.shape(),
                    p.shape()
                ),
            ));
        }
    }
    for (p, m) in params.into_iter().zip(matrices) {
        *p = m;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Linear, Module};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn matrices_roundtrip() {
        let ms = vec![
            Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]),
            Matrix::scalar(-0.5),
            Matrix::zeros(1, 4),
        ];
        let mut buf = Vec::new();
        write_matrices(&mut buf, &ms).unwrap();
        let back = read_matrices(&buf[..]).unwrap();
        assert_eq!(ms, back);
    }

    #[test]
    fn bad_magic_rejected() {
        let buf = [0u8; 32];
        assert!(read_matrices(&buf[..]).is_err());
    }

    #[test]
    fn parameters_roundtrip_through_layers() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Linear::new(3, 2, &mut rng);
        let b = Linear::new(3, 2, &mut rng);
        let mut buf = Vec::new();
        save_parameters(&mut buf, &a.parameters()).unwrap();
        let mut b = b;
        load_parameters(&buf[..], b.parameters_mut()).unwrap();
        let x = Matrix::from_vec(1, 3, vec![0.3, -0.7, 0.2]);
        assert_eq!(a.infer(&x), b.infer(&x));
    }

    #[test]
    fn mismatched_shapes_rejected() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = Linear::new(3, 2, &mut rng);
        let mut b = Linear::new(4, 2, &mut rng);
        let mut buf = Vec::new();
        save_parameters(&mut buf, &a.parameters()).unwrap();
        assert!(load_parameters(&buf[..], b.parameters_mut()).is_err());
        let mut c = Linear::new(3, 2, &mut rng);
        let mut too_few = c.parameters_mut();
        too_few.truncate(1);
        assert!(load_parameters(&buf[..], too_few).is_err());
    }
}
