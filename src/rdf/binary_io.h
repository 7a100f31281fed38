#ifndef RDFA_RDF_BINARY_IO_H_
#define RDFA_RDF_BINARY_IO_H_

#include <memory>
#include <string>
#include <string_view>

#include "common/status.h"
#include "rdf/graph.h"

namespace rdfa::rdf {

/// Binary snapshot formats. Term ids are preserved exactly across a
/// save/load round trip in every version, which keeps saved
/// extensions/sessions valid.
///
/// RDFA1 ("RDFA1\n"): u64 term count, per term u8 kind + 3 length-prefixed
/// strings (lexical, datatype, lang); u64 triple count, per triple 3xu32.
///
/// RDFA2 ("RDFA2\n"): RDFA1 plus a trailing GraphStats block (4xu64 global
/// distincts, u64 predicate count, per predicate u32 id + 3xu64, ascending
/// id order).
///
/// RDFA3 ("RDFA3\n"): the compressed, mmap-able layout. After the magic, a
/// section table (u32 section count; per section u32 kind, u64 file offset,
/// u64 length) indexes six sections — unknown kinds are skippable:
///
///   1 TERMS        u64 term count, u32 block size (16), the datatype and
///                  language dictionaries (u64 count; per entry vbyte length
///                  + bytes, first-appearance-by-id order), u64 block count,
///                  per block a u64 offset into the blob, then the blob:
///                  per term u8 kind, vbyte shared-prefix length against the
///                  previous term's lexical (0 at each block start), vbyte
///                  suffix length + suffix bytes, vbyte datatype index and
///                  vbyte language index (0 = none, else dictionary index
///                  + 1). Front-coding restarts at every block, so one term
///                  decodes by scanning at most its 16-term block.
///
///   2/3/4 PERM_SPO/POS/OSP
///                  u64 key count, u32 block size (128), u64 block count,
///                  per block a 20-byte index entry (u32 a, u32 b, u32 c =
///                  the block's first key in permuted lane order, u64 blob
///                  offset), then the blob: keys [1..) of each block
///                  difference-coded against their predecessor — vbyte da;
///                  if da != 0 then vbyte b, vbyte c; else vbyte db; if
///                  db != 0 then vbyte c; else vbyte dc (keys are strictly
///                  increasing, so dc > 0). A bound-prefix range scan binary
///                  searches the block index and decodes only the blocks
///                  overlapping its range.
///
///   5 STATS        the RDFA2 stats block, verbatim layout.
///
///   6 GENERATIONS  u64 global mutation generation, u64 entry count, per
///                  entry u32 predicate id + u64 epoch (ascending id order)
///                  — the cache-invalidation stamps survive a round trip.
///
/// RDFA3 canonicalizes triple order to SPO: both the heap loader and the
/// mapped view enumerate the full graph in SPO order, so query results are
/// byte-identical regardless of backend. All fixed-width integers are
/// little-endian and unaligned.
inline constexpr int kSnapshotVersionV2 = 2;
inline constexpr int kSnapshotVersionV3 = 3;

/// Serializes `graph` as an RDFA2 or RDFA3 (default) snapshot.
std::string SaveBinary(const Graph& graph, int version = kSnapshotVersionV3);

/// Restores a snapshot (any version, auto-detected) into an *empty* graph,
/// fully decoded onto the heap. Term ids are preserved exactly as saved.
Status LoadBinary(std::string_view data, Graph* graph);

/// Writes the snapshot crash-safely: to `path.tmp.<pid>`, fsync, rename(2)
/// over `path`, fsync of the directory. A reader that has the old file
/// mapped keeps its inode and goes on serving the old snapshot unharmed.
Status SaveBinaryFile(const Graph& graph, const std::string& path,
                      int version = kSnapshotVersionV3);
Status LoadBinaryFile(const std::string& path, Graph* graph);

/// Opens an RDFA3 snapshot as a mapped graph: the file is mmap-ed (or read
/// into memory where mmap is unavailable) and only the section structure is
/// parsed — terms and posting lists decode lazily per access, so this is
/// O(sections), not O(data). The graph answers every read path directly off
/// the snapshot and materializes to the heap on first mutation.
Result<std::unique_ptr<Graph>> OpenMappedSnapshot(const std::string& path);

}  // namespace rdfa::rdf

#endif  // RDFA_RDF_BINARY_IO_H_
