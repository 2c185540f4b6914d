//! Host-side helpers for laying out C-like data structures in VM memory.
//!
//! Benchmarks build their run-time-constant data structures (cache
//! descriptors, sparse matrices, expression programs, …) with these
//! helpers, then pass the addresses to compiled code.

use dyncomp_ir::eval::{EvalError, Memory};

/// A builder over a [`Memory`] for structs, arrays and linked records.
pub struct HeapBuilder<'m> {
    mem: &'m mut Memory,
}

impl<'m> HeapBuilder<'m> {
    /// Wrap a memory image.
    pub fn new(mem: &'m mut Memory) -> Self {
        HeapBuilder { mem }
    }

    /// Allocate `n` zeroed bytes; returns the address.
    ///
    /// # Errors
    /// Fails when the heap is exhausted.
    pub fn alloc(&mut self, n: u64) -> Result<u64, EvalError> {
        self.mem.alloc(n)
    }

    /// Write a 64-bit word.
    pub fn put_u64(&mut self, addr: u64, v: u64) -> Result<(), EvalError> {
        self.mem.write_u64(addr, v)
    }

    /// Write a signed 64-bit word.
    pub fn put_i64(&mut self, addr: u64, v: i64) -> Result<(), EvalError> {
        self.mem.write_u64(addr, v as u64)
    }

    /// Write a double.
    pub fn put_f64(&mut self, addr: u64, v: f64) -> Result<(), EvalError> {
        self.mem.write_u64(addr, v.to_bits())
    }

    /// Allocate and fill an array of 64-bit words; returns its address.
    ///
    /// # Errors
    /// Fails when the heap is exhausted.
    pub fn array_u64(&mut self, values: &[u64]) -> Result<u64, EvalError> {
        let a = self.alloc(8 * values.len() as u64)?;
        for (i, &v) in values.iter().enumerate() {
            self.put_u64(a + 8 * i as u64, v)?;
        }
        Ok(a)
    }

    /// Allocate and fill an array of signed 64-bit words.
    ///
    /// # Errors
    /// Fails when the heap is exhausted.
    pub fn array_i64(&mut self, values: &[i64]) -> Result<u64, EvalError> {
        let a = self.alloc(8 * values.len() as u64)?;
        for (i, &v) in values.iter().enumerate() {
            self.put_i64(a + 8 * i as u64, v)?;
        }
        Ok(a)
    }

    /// Allocate and fill an array of doubles.
    ///
    /// # Errors
    /// Fails when the heap is exhausted.
    pub fn array_f64(&mut self, values: &[f64]) -> Result<u64, EvalError> {
        let a = self.alloc(8 * values.len() as u64)?;
        for (i, &v) in values.iter().enumerate() {
            self.put_f64(a + 8 * i as u64, v)?;
        }
        Ok(a)
    }

    /// Allocate a struct of `fields` 64-bit values in declaration order;
    /// returns its address (fields at `addr + 8*i`).
    ///
    /// # Errors
    /// Fails when the heap is exhausted.
    pub fn record(&mut self, fields: &[u64]) -> Result<u64, EvalError> {
        self.array_u64(fields)
    }

    /// Read back a 64-bit word (for assertions in tests).
    ///
    /// # Errors
    /// Fails on out-of-bounds access.
    pub fn get_u64(&self, addr: u64) -> Result<u64, EvalError> {
        self.mem.read_u64(addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_array_layout() {
        let mut mem = Memory::with_capacity(1 << 16);
        let mut hb = HeapBuilder::new(&mut mem);
        let arr = hb.array_i64(&[10, -20, 30]).unwrap();
        let rec = hb.record(&[1, arr, 3]).unwrap();
        assert_eq!(hb.get_u64(rec).unwrap(), 1);
        assert_eq!(hb.get_u64(rec + 8).unwrap(), arr);
        assert_eq!(hb.get_u64(arr + 8).unwrap() as i64, -20);
    }

    #[test]
    fn float_array_bits() {
        let mut mem = Memory::with_capacity(1 << 16);
        let mut hb = HeapBuilder::new(&mut mem);
        let a = hb.array_f64(&[1.5, -2.5]).unwrap();
        assert_eq!(f64::from_bits(hb.get_u64(a + 8).unwrap()), -2.5);
    }
}
