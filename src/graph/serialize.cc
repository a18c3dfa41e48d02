#include "graph/serialize.h"

#include <bit>
#include <cassert>
#include <cstring>
#include <fstream>

namespace ppsm {

namespace {

constexpr uint32_t kGraphMagic = 0x4d535050;  // "PPSM"
constexpr uint8_t kGraphVersion = 1;
constexpr uint32_t kSchemaMagic = 0x48435350;  // "PSCH"
constexpr uint8_t kSchemaVersion = 1;
constexpr uint32_t kSnapshotMagic = 0x504e5350;  // "PSNP"
constexpr uint32_t kSnapshotVersion = 1;

// The snapshot payload is the host representation of the CSR arrays; the
// format is defined as little-endian.
static_assert(std::endian::native == std::endian::little,
              "graph snapshots assume a little-endian host");

/// FNV-1a 64 over the snapshot payload; cheap, dependency-free corruption
/// detection (bit flips, short reads), not an integrity MAC.
uint64_t Fnv1a64(std::span<const uint8_t> bytes) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (const uint8_t b : bytes) {
    hash ^= b;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

}  // namespace

void BinaryWriter::PutU32(uint32_t value) {
  for (int i = 0; i < 4; ++i) bytes_.push_back((value >> (8 * i)) & 0xff);
}

void BinaryWriter::PutU64(uint64_t value) {
  for (int i = 0; i < 8; ++i) bytes_.push_back((value >> (8 * i)) & 0xff);
}

void BinaryWriter::PutVarint(uint64_t value) {
  while (value >= 0x80) {
    bytes_.push_back(static_cast<uint8_t>(value) | 0x80);
    value >>= 7;
  }
  bytes_.push_back(static_cast<uint8_t>(value));
}

void BinaryWriter::PutString(const std::string& value) {
  PutVarint(value.size());
  bytes_.insert(bytes_.end(), value.begin(), value.end());
}

void BinaryWriter::PutBytes(std::span<const uint8_t> bytes) {
  bytes_.insert(bytes_.end(), bytes.begin(), bytes.end());
}

void BinaryWriter::PutSortedIds(std::span<const uint32_t> sorted_ids) {
  PutVarint(sorted_ids.size());
  uint32_t previous = 0;
  for (size_t i = 0; i < sorted_ids.size(); ++i) {
    assert(i == 0 || sorted_ids[i] >= sorted_ids[i - 1]);
    PutVarint(sorted_ids[i] - previous);
    previous = sorted_ids[i];
  }
}

Result<uint8_t> BinaryReader::GetU8() {
  if (remaining() < 1) return Status::OutOfRange("truncated input (u8)");
  return bytes_[position_++];
}

Result<uint32_t> BinaryReader::GetU32() {
  if (remaining() < 4) return Status::OutOfRange("truncated input (u32)");
  uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    value |= static_cast<uint32_t>(bytes_[position_++]) << (8 * i);
  }
  return value;
}

Result<uint64_t> BinaryReader::GetU64() {
  if (remaining() < 8) return Status::OutOfRange("truncated input (u64)");
  uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<uint64_t>(bytes_[position_++]) << (8 * i);
  }
  return value;
}

Result<uint64_t> BinaryReader::GetVarint() {
  uint64_t value = 0;
  int shift = 0;
  while (true) {
    if (remaining() < 1) return Status::OutOfRange("truncated varint");
    if (shift >= 64) return Status::OutOfRange("varint overflow");
    const uint8_t byte = bytes_[position_++];
    value |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) break;
    shift += 7;
  }
  return value;
}

Result<std::string> BinaryReader::GetString() {
  PPSM_ASSIGN_OR_RETURN(const uint64_t length, GetVarint());
  if (remaining() < length) return Status::OutOfRange("truncated string");
  // data() + position_, not &bytes_[position_]: an empty string may end
  // the buffer, where position_ == size() is no valid index.
  std::string value(reinterpret_cast<const char*>(bytes_.data() + position_),
                    length);
  position_ += length;
  return value;
}

Result<std::vector<uint32_t>> BinaryReader::GetSortedIds() {
  PPSM_ASSIGN_OR_RETURN(const uint64_t count, GetVarint());
  if (count > remaining()) {
    // Each id needs at least one byte; reject absurd counts before
    // allocating.
    return Status::OutOfRange("id list count exceeds remaining bytes");
  }
  std::vector<uint32_t> ids;
  ids.reserve(count);
  uint64_t previous = 0;
  for (uint64_t i = 0; i < count; ++i) {
    PPSM_ASSIGN_OR_RETURN(const uint64_t delta, GetVarint());
    previous += delta;
    if (previous > UINT32_MAX) return Status::OutOfRange("id overflow");
    ids.push_back(static_cast<uint32_t>(previous));
  }
  return ids;
}

Result<std::span<const uint8_t>> BinaryReader::GetBytes(size_t count) {
  if (remaining() < count) {
    return Status::OutOfRange("truncated input (raw bytes)");
  }
  const std::span<const uint8_t> view = bytes_.subspan(position_, count);
  position_ += count;
  return view;
}

std::vector<uint8_t> SerializeGraph(const AttributedGraph& graph) {
  BinaryWriter writer;
  writer.PutU32(kGraphMagic);
  writer.PutU8(kGraphVersion);
  writer.PutVarint(graph.NumVertices());
  writer.PutVarint(graph.NumEdges());
  for (VertexId v = 0; v < graph.NumVertices(); ++v) {
    writer.PutSortedIds(graph.Types(v));
    writer.PutSortedIds(graph.Labels(v));
  }
  // Forward adjacency only (neighbors > v), delta-encoded.
  std::vector<uint32_t> forward;
  for (VertexId v = 0; v < graph.NumVertices(); ++v) {
    forward.clear();
    for (const VertexId u : graph.Neighbors(v)) {
      if (u > v) forward.push_back(u);
    }
    writer.PutSortedIds(forward);
  }
  return writer.TakeBytes();
}

Result<AttributedGraph> DeserializeGraph(
    std::span<const uint8_t> bytes, std::shared_ptr<const Schema> schema) {
  BinaryReader reader(bytes);
  PPSM_ASSIGN_OR_RETURN(const uint32_t magic, reader.GetU32());
  if (magic != kGraphMagic) {
    return Status::InvalidArgument("bad graph magic");
  }
  PPSM_ASSIGN_OR_RETURN(const uint8_t version, reader.GetU8());
  if (version != kGraphVersion) {
    return Status::InvalidArgument("unsupported graph version " +
                                   std::to_string(version));
  }
  PPSM_ASSIGN_OR_RETURN(const uint64_t num_vertices, reader.GetVarint());
  PPSM_ASSIGN_OR_RETURN(const uint64_t num_edges, reader.GetVarint());
  // Every vertex costs at least two bytes (its type and label counts);
  // reject forged headers before reserving memory for them.
  if (num_vertices > reader.remaining() / 2 + 1) {
    return Status::OutOfRange("vertex count exceeds payload size");
  }

  GraphBuilder builder(std::move(schema));
  builder.ReserveVertices(num_vertices);
  std::vector<std::vector<uint32_t>> pending_labels;
  for (uint64_t v = 0; v < num_vertices; ++v) {
    PPSM_ASSIGN_OR_RETURN(std::vector<uint32_t> types, reader.GetSortedIds());
    PPSM_ASSIGN_OR_RETURN(std::vector<uint32_t> labels, reader.GetSortedIds());
    builder.AddVertex(std::move(types), std::move(labels));
  }
  for (uint64_t v = 0; v < num_vertices; ++v) {
    PPSM_ASSIGN_OR_RETURN(std::vector<uint32_t> neighbors,
                          reader.GetSortedIds());
    for (const uint32_t u : neighbors) {
      if (u >= num_vertices) {
        return Status::InvalidArgument("edge endpoint out of range");
      }
      PPSM_RETURN_IF_ERROR(
          builder.AddEdge(static_cast<VertexId>(v), static_cast<VertexId>(u)));
    }
  }
  if (builder.NumEdges() != num_edges) {
    return Status::InvalidArgument("edge count mismatch in graph payload");
  }
  return builder.Build();
}

std::vector<uint8_t> SerializeSchema(const Schema& schema) {
  BinaryWriter writer;
  writer.PutU32(kSchemaMagic);
  writer.PutU8(kSchemaVersion);
  writer.PutVarint(schema.NumTypes());
  for (VertexTypeId t = 0; t < schema.NumTypes(); ++t) {
    writer.PutString(schema.TypeName(t));
  }
  writer.PutVarint(schema.NumAttributes());
  for (AttributeId a = 0; a < schema.NumAttributes(); ++a) {
    writer.PutString(schema.AttributeName(a));
    writer.PutVarint(schema.TypeOfAttribute(a));
  }
  writer.PutVarint(schema.NumLabels());
  for (LabelId l = 0; l < schema.NumLabels(); ++l) {
    writer.PutString(schema.LabelName(l));
    writer.PutVarint(schema.AttributeOfLabel(l));
  }
  return writer.TakeBytes();
}

Result<Schema> DeserializeSchema(std::span<const uint8_t> bytes) {
  BinaryReader reader(bytes);
  PPSM_ASSIGN_OR_RETURN(const uint32_t magic, reader.GetU32());
  if (magic != kSchemaMagic) {
    return Status::InvalidArgument("bad schema magic");
  }
  PPSM_ASSIGN_OR_RETURN(const uint8_t version, reader.GetU8());
  if (version != kSchemaVersion) {
    return Status::InvalidArgument("unsupported schema version");
  }
  Schema schema;
  PPSM_ASSIGN_OR_RETURN(const uint64_t num_types, reader.GetVarint());
  for (uint64_t t = 0; t < num_types; ++t) {
    PPSM_ASSIGN_OR_RETURN(const std::string name, reader.GetString());
    PPSM_ASSIGN_OR_RETURN(const VertexTypeId id, schema.AddType(name));
    if (id != t) return Status::Internal("type id mismatch");
  }
  PPSM_ASSIGN_OR_RETURN(const uint64_t num_attributes, reader.GetVarint());
  for (uint64_t a = 0; a < num_attributes; ++a) {
    PPSM_ASSIGN_OR_RETURN(const std::string name, reader.GetString());
    PPSM_ASSIGN_OR_RETURN(const uint64_t type, reader.GetVarint());
    PPSM_ASSIGN_OR_RETURN(
        const AttributeId id,
        schema.AddAttribute(static_cast<VertexTypeId>(type), name));
    if (id != a) return Status::Internal("attribute id mismatch");
  }
  PPSM_ASSIGN_OR_RETURN(const uint64_t num_labels, reader.GetVarint());
  for (uint64_t l = 0; l < num_labels; ++l) {
    PPSM_ASSIGN_OR_RETURN(const std::string name, reader.GetString());
    PPSM_ASSIGN_OR_RETURN(const uint64_t attribute, reader.GetVarint());
    PPSM_ASSIGN_OR_RETURN(
        const LabelId id,
        schema.AddLabel(static_cast<AttributeId>(attribute), name));
    if (id != l) return Status::Internal("label id mismatch");
  }
  return schema;
}

namespace {

/// Appends `values` to `out` as raw little-endian u32s.
void AppendU32Array(std::vector<uint8_t>& out,
                    const std::vector<uint32_t>& values) {
  if (values.empty()) return;
  const size_t offset = out.size();
  out.resize(offset + values.size() * sizeof(uint32_t));
  std::memcpy(out.data() + offset, values.data(),
              values.size() * sizeof(uint32_t));
}

/// Copies `count` u32s out of the reader into a vector.
Result<std::vector<uint32_t>> ReadU32Array(BinaryReader& reader,
                                           uint64_t count) {
  PPSM_ASSIGN_OR_RETURN(const std::span<const uint8_t> raw,
                        reader.GetBytes(count * sizeof(uint32_t)));
  std::vector<uint32_t> values(count);
  if (count > 0) std::memcpy(values.data(), raw.data(), raw.size());
  return values;
}

}  // namespace

std::vector<uint8_t> SerializeGraphSnapshot(const AttributedGraph& graph) {
  const GraphCsr& csr = graph.csr();
  std::vector<uint8_t> payload;
  payload.reserve((csr.adjacency_offsets.size() + csr.adjacency.size() +
                   csr.type_offsets.size() + csr.types.size() +
                   csr.label_offsets.size() + csr.labels.size()) *
                  sizeof(uint32_t));
  AppendU32Array(payload, csr.adjacency_offsets);
  AppendU32Array(payload, csr.adjacency);
  AppendU32Array(payload, csr.type_offsets);
  AppendU32Array(payload, csr.types);
  AppendU32Array(payload, csr.label_offsets);
  AppendU32Array(payload, csr.labels);

  BinaryWriter writer;
  writer.PutU32(kSnapshotMagic);
  writer.PutU32(kSnapshotVersion);
  writer.PutU64(graph.NumVertices());
  writer.PutU64(graph.NumEdges());
  writer.PutU64(csr.adjacency_offsets.size());
  writer.PutU64(csr.adjacency.size());
  writer.PutU64(csr.type_offsets.size());
  writer.PutU64(csr.types.size());
  writer.PutU64(csr.label_offsets.size());
  writer.PutU64(csr.labels.size());
  writer.PutU64(Fnv1a64(payload));
  writer.PutBytes(payload);
  return writer.TakeBytes();
}

Result<AttributedGraph> DeserializeGraphSnapshot(
    std::span<const uint8_t> bytes, std::shared_ptr<const Schema> schema) {
  BinaryReader reader(bytes);
  PPSM_ASSIGN_OR_RETURN(const uint32_t magic, reader.GetU32());
  if (magic != kSnapshotMagic) {
    return Status::InvalidArgument("bad graph snapshot magic");
  }
  PPSM_ASSIGN_OR_RETURN(const uint32_t version, reader.GetU32());
  if (version != kSnapshotVersion) {
    return Status::InvalidArgument("unsupported graph snapshot version " +
                                   std::to_string(version));
  }
  PPSM_ASSIGN_OR_RETURN(const uint64_t num_vertices, reader.GetU64());
  PPSM_ASSIGN_OR_RETURN(const uint64_t num_edges, reader.GetU64());
  uint64_t counts[6];
  uint64_t total_elements = 0;
  for (uint64_t& count : counts) {
    PPSM_ASSIGN_OR_RETURN(count, reader.GetU64());
    // Each element occupies 4 payload bytes; reject forged counts before
    // allocating anything.
    if (count > reader.remaining() / sizeof(uint32_t)) {
      return Status::OutOfRange("snapshot array count exceeds payload size");
    }
    total_elements += count;
  }
  PPSM_ASSIGN_OR_RETURN(const uint64_t checksum, reader.GetU64());
  if (total_elements * sizeof(uint32_t) != reader.remaining()) {
    return Status::InvalidArgument(
        "snapshot payload size disagrees with header counts");
  }
  // Cross-check the redundant header fields; AdoptCsr re-verifies the
  // structure itself, but count lies should fail fast and loudly.
  if (counts[0] != (num_vertices == 0 && counts[0] == 0 ? 0
                                                        : num_vertices + 1) ||
      counts[1] != 2 * num_edges) {
    return Status::InvalidArgument("snapshot header counts are inconsistent");
  }

  const std::span<const uint8_t> payload =
      bytes.subspan(bytes.size() - reader.remaining());
  if (Fnv1a64(payload) != checksum) {
    return Status::InvalidArgument("graph snapshot checksum mismatch");
  }
  BinaryReader payload_reader(payload);

  GraphCsr csr;
  PPSM_ASSIGN_OR_RETURN(csr.adjacency_offsets,
                        ReadU32Array(payload_reader, counts[0]));
  PPSM_ASSIGN_OR_RETURN(csr.adjacency, ReadU32Array(payload_reader, counts[1]));
  PPSM_ASSIGN_OR_RETURN(csr.type_offsets,
                        ReadU32Array(payload_reader, counts[2]));
  PPSM_ASSIGN_OR_RETURN(csr.types, ReadU32Array(payload_reader, counts[3]));
  PPSM_ASSIGN_OR_RETURN(csr.label_offsets,
                        ReadU32Array(payload_reader, counts[4]));
  PPSM_ASSIGN_OR_RETURN(csr.labels, ReadU32Array(payload_reader, counts[5]));
  return AttributedGraph::AdoptCsr(std::move(csr), std::move(schema));
}

Status SaveGraphSnapshot(const AttributedGraph& graph,
                         const std::string& path) {
  return WriteBytesToFile(path, SerializeGraphSnapshot(graph));
}

Result<AttributedGraph> LoadGraphSnapshot(
    const std::string& path, std::shared_ptr<const Schema> schema) {
  PPSM_ASSIGN_OR_RETURN(const std::vector<uint8_t> bytes,
                        ReadBytesFromFile(path));
  return DeserializeGraphSnapshot(bytes, std::move(schema));
}

Status WriteBytesToFile(const std::string& path,
                        std::span<const uint8_t> bytes) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::NotFound("cannot open '" + path + "' for write");
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) return Status::Internal("write failed for '" + path + "'");
  return Status::OK();
}

Result<std::vector<uint8_t>> ReadBytesFromFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Status::NotFound("cannot open '" + path + "'");
  const std::streamsize size = in.tellg();
  in.seekg(0);
  std::vector<uint8_t> bytes(static_cast<size_t>(size));
  in.read(reinterpret_cast<char*>(bytes.data()), size);
  if (!in) return Status::Internal("read failed for '" + path + "'");
  return bytes;
}

}  // namespace ppsm
