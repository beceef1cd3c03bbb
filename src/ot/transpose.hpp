// Bit-matrix transpose for IKNP-style OT extension.
//
// Extension produces 128 bit columns of n bits (one per base OT) and
// consumes n rows of 128 bits (one per extended OT). Both IKNP's
// 64-bit-word columns and the pool's byte columns share one memory
// layout on little-endian hosts -- bit j of a column is bit j % 8 of
// byte j / 8 -- so both hand their columns to this one kernel.
#pragma once

#include <cstddef>
#include <cstdint>

#include "crypto/block.hpp"

namespace maxel::ot {

// Writes rows[j] (j < n) with bit i equal to bit j of cols[i]. Each of
// the 128 columns must hold at least ceil(n / 8) readable bytes; bits of
// a column past n are ignored. On x86-64 this runs 128x128 tiles through
// SSE2 byte unpacks and movemask; elsewhere it falls back to a scalar
// loop with the same output.
void transpose128(const std::uint8_t* const cols[128], std::size_t n,
                  crypto::Block* rows);

}  // namespace maxel::ot
