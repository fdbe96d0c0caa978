// The object model of the adaptive processor (paper §2.1).
//
// A *physical object* is a processing element on the array. *Local
// configuration data* tells a physical object what operation to perform.
// The pair (initial data, local configuration data) is a *logical object*;
// a logical object bound onto a physical object is simply an *object*.
// Logical objects move across the physical-object array via stack shifts.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace vlsip::arch {

/// Identifier of a logical object. IDs index the application's object
/// library; the global configuration stream references objects by ID only
/// (the stream "simply represents the dependencies", §2.7).
using ObjectId = std::uint32_t;

/// Sentinel for "no object".
inline constexpr ObjectId kNoObject = 0xFFFFFFFFu;

/// Every resident object id is below this bound: the configuration
/// stream packs an id into 16 bits with 0xFFFF as its no-object field
/// (arch/serialize.hpp), and the object space indexes positions by id.
inline constexpr ObjectId kObjectIdLimit = 0xFFFFu;

/// A 64-bit datapath word. The adaptive processor is untyped at the
/// transport level; each operator interprets the bits it receives.
union Word {
  std::uint64_t u;
  std::int64_t i;
  double f;
};

inline Word make_word_u(std::uint64_t v) { Word w; w.u = v; return w; }
inline Word make_word_i(std::int64_t v) { Word w; w.i = v; return w; }
inline Word make_word_f(double v) { Word w; w.f = v; return w; }

/// Operation performed by a configured object. The set mirrors the
/// execution fabrics the cost model budgets for (Table 1: 64-bit fMul,
/// fAdd, fDiv, iMul, iALU/shift, iDiv) plus the transport/control objects
/// the architecture needs (constants, buffers, compares, selects,
/// loads/stores against memory blocks).
enum class Opcode : std::uint8_t {
  kNop,
  // Integer ALU fabric
  kIAdd,
  kISub,
  kIMul,
  kIDiv,
  kIRem,
  kIShl,
  kIShr,
  kIAnd,
  kIOr,
  kIXor,
  kINeg,
  // Floating-point fabric
  kFAdd,
  kFSub,
  kFMul,
  kFDiv,
  kFNeg,
  // Comparison / control (produce 0/1 words)
  kCmpGt,
  kCmpLt,
  kCmpEq,
  kSelect,   // src0 ? src1 : src2 — modelled as 2-phase (cond latched first)
  kGate,     // forwards src1 iff src0 != 0 (conditional send, fig. 7)
  kGateNot,  // forwards src1 iff src0 == 0
  kMerge,    // forwards whichever of src0/src1 arrives (gated arms join)
  // Data movement / sequencing
  kConst,    // emits its immediate once per activation
  kBuff,     // single-entry buffer / identity (the "buff" of fig. 7a)
  kIota,     // hardware loop (ALU-II/sequencer, Table 2): consumes a
             // count N and emits the stream 0, 1, ..., N-1
  kLoad,     // loads from the memory object at address src0
  kStore,    // stores src1 to the memory object at address src0
  kSink,     // consumes a value and records it as a datapath output
};

/// Functional class of an opcode; decides which execution fabric is used
/// and therefore which area entry of Table 1/2 the object occupies.
enum class OpClass : std::uint8_t {
  kNone,     // nop
  kIntAlu,   // iALU/shift fabric
  kIntMul,   // iMul fabric
  kIntDiv,   // iDiv fabric
  kFloat,    // fMul/fAdd fabric
  kFloatDiv, // fDiv fabric
  kMemory,   // memory-block access
  kTransport // const/buff/sink/gates — register-only
};

OpClass op_class(Opcode op);

/// Number of input operands the opcode consumes (0..3).
int op_arity(Opcode op);

/// Default execution latency in cycles once all operands are present.
/// Chosen to reflect the relative depth of each fabric (divides are long,
/// transport is single-cycle); the exact values are simulator parameters,
/// not paper claims.
int op_latency(Opcode op);

/// True if the opcode produces an output token.
bool op_produces(Opcode op);

const char* op_name(Opcode op);

/// Local configuration data (§2.1): everything a physical object needs to
/// perform its role in the datapath.
struct LocalConfig {
  Opcode opcode = Opcode::kNop;
  /// Immediate operand for kConst (and available to others).
  Word immediate{0};
  /// Optional latency override, e.g. to model a slower library variant
  /// ("a library using a small number of metal layers", §2.6.2).
  std::optional<int> latency_override;
  /// If set, the object starts with one pre-loaded output token carrying
  /// the logical object's initial data. This turns a kBuff into a true
  /// unit delay (z^-1), which streaming datapaths (e.g. FIR delay lines)
  /// need; it is the dataflow reading of "initial data" in §2.1.
  bool initial_token = false;

  int latency() const {
    return latency_override ? *latency_override : op_latency(opcode);
  }
};

/// A logical object: local configuration plus initial data. Logical
/// objects live in the library (in memory blocks) and are loaded into
/// physical objects on demand (object caching, §2.4–2.5).
struct LogicalObject {
  ObjectId id = kNoObject;
  LocalConfig config;
  /// Initial data; e.g. an accumulator's starting value.
  Word initial{0};
  /// Debug name for traces and examples.
  std::string name;
};

}  // namespace vlsip::arch
