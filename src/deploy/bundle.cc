/**
 * @file
 * Implementation of the `SHBL` deployment-bundle codec and the
 * deployment-manifest parser.
 */
#include "src/deploy/bundle.h"

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/nn/arch.h"
#include "src/runtime/logging.h"
#include "src/runtime/serving_error.h"
#include "src/tensor/serialize.h"

namespace shredder {
namespace deploy {

namespace {

using runtime::ServingError;
using runtime::ServingErrorCode;

constexpr std::uint32_t kBundleMagic = 0x4C424853;  // 'SHBL'
constexpr std::uint32_t kEndMagic = 0x444E4553;     // 'SEND'

/** Promote a per-sample shape to a batch-1 shape. */
Shape
batched(const Shape& per_sample)
{
    switch (per_sample.rank()) {
      case 1: return Shape({1, per_sample[0]});
      case 2: return Shape({1, per_sample[0], per_sample[1]});
      case 3:
        return Shape({1, per_sample[0], per_sample[1], per_sample[2]});
      default:
        throw SerializeError("per-sample shape must have rank 1-3, got " +
                             per_sample.to_string());
    }
}

/** Drop the leading batch-1 dimension again. */
Shape
unbatched(const Shape& with_batch)
{
    switch (with_batch.rank()) {
      case 2: return Shape({with_batch[1]});
      case 3: return Shape({with_batch[1], with_batch[2]});
      case 4:
        return Shape({with_batch[1], with_batch[2], with_batch[3]});
      default:
        throw SerializeError("activation shape has impossible rank");
    }
}

/**
 * Per-sample activation shape of `net` cut at `cut` for `input`
 * (CHW). Layer shape rules are enforced with user-error checks, so a
 * caller holding a `ScopedFatalThrow` guard gets an exception — not a
 * dead process — for an inconsistent (topology, input, cut) triple.
 */
Shape
activation_shape_at(const nn::Sequential& net, std::int64_t cut,
                    const Shape& input)
{
    return unbatched(net.output_shape_range(batched(input), 0, cut));
}

[[noreturn]] void
bad_bundle(const std::string& path, const std::string& why)
{
    throw ServingError(ServingErrorCode::kBadBundle,
                       "bundle '" + path + "': " + why);
}

/** True when the spec (or one of its stages) names `kind`. */
bool
spec_uses(const PolicySpec& spec, PolicyKind kind)
{
    if (spec.kind == kind) {
        return true;
    }
    for (const PolicySpec& stage : spec.stages) {
        if (stage.kind == kind) {
            return true;
        }
    }
    return false;
}

/**
 * Spec-vs-artifact consistency shared by the trusted writer and the
 * untrusted reader: every mechanism the spec names (top level or
 * stage) must have its backing artifact, composition must stay within
 * the depth/width limits, and stage fields must be well-formed.
 * `fail` reports a violation (fatal on save, `kBadBundle` on load).
 */
template <typename FailFn>
void
check_policy_spec(const PolicySpec& spec, bool has_collection,
                  bool has_distribution, bool has_fixed, bool is_stage,
                  const FailFn& fail)
{
    switch (spec.kind) {
      case PolicyKind::kNone:
        break;
      case PolicyKind::kReplay:
        if (!has_collection) {
            fail("replay policy needs a non-empty noise collection");
        }
        break;
      case PolicyKind::kSample:
        if (!has_distribution) {
            fail("sample policy needs a fitted distribution (fit it "
                 "offline — that is the deployment story)");
        }
        break;
      case PolicyKind::kFixed:
        if (!has_fixed) {
            fail("fixed policy needs a noise tensor matching the cut "
                 "activation");
        }
        break;
      case PolicyKind::kShuffle:
        if (spec.rank_matched && !has_distribution) {
            fail("rank-matched shuffle policy needs a fitted "
                 "distribution");
        }
        break;
      case PolicyKind::kComposed: {
        if (is_stage) {
            fail("composed policy stages must not nest");
        }
        if (spec.stages.empty() ||
            spec.stages.size() > kMaxComposedStages) {
            fail("composed policy needs 1.." +
                 std::to_string(kMaxComposedStages) + " stages");
        }
        for (const PolicySpec& stage : spec.stages) {
            check_policy_spec(stage, has_collection, has_distribution,
                              has_fixed, /*is_stage=*/true, fail);
        }
        break;
      }
      default:
        fail("unknown policy kind");
    }
    if (spec.kind != PolicyKind::kComposed && !spec.stages.empty()) {
        fail("only a composed policy carries stages");
    }
    if (spec.kind != PolicyKind::kShuffle && spec.rank_matched) {
        fail("only a shuffle policy may be rank-matched");
    }
}

/** Write one (possibly stage-level) policy spec, format version 2. */
void
write_policy_spec(std::ostream& os, const PolicySpec& spec)
{
    wire::write_u32(os, static_cast<std::uint32_t>(spec.kind));
    wire::write_u64(os, spec.seed);
    if (spec.kind == PolicyKind::kShuffle) {
        wire::write_u8(os, spec.rank_matched ? 1 : 0);
    } else if (spec.kind == PolicyKind::kComposed) {
        wire::write_u32(os,
                        static_cast<std::uint32_t>(spec.stages.size()));
        for (const PolicySpec& stage : spec.stages) {
            write_policy_spec(os, stage);
        }
    }
}

/**
 * Read one policy spec from untrusted bytes. `max_kind` caps the
 * accepted kinds (version-1 files stop at `kFixed`); stages reject
 * nested composition and re-apply the same cap.
 */
PolicySpec
read_policy_spec(std::istream& is, const std::string& path,
                 std::uint32_t max_kind, bool is_stage)
{
    PolicySpec spec;
    const std::uint32_t kind = wire::read_u32(is);
    if (kind > max_kind) {
        bad_bundle(path, "unknown policy kind");
    }
    spec.kind = static_cast<PolicyKind>(kind);
    spec.seed = wire::read_u64(is);
    if (spec.kind == PolicyKind::kShuffle) {
        const std::uint8_t rank_matched = wire::read_u8(is);
        if (rank_matched > 1) {
            bad_bundle(path, "bad shuffle variant flag");
        }
        spec.rank_matched = rank_matched == 1;
    } else if (spec.kind == PolicyKind::kComposed) {
        if (is_stage) {
            bad_bundle(path, "composed policy stages must not nest");
        }
        const std::uint32_t count = wire::read_u32(is);
        if (count == 0 || count > kMaxComposedStages) {
            bad_bundle(path, "composed stage count out of range");
        }
        spec.stages.reserve(count);
        for (std::uint32_t i = 0; i < count; ++i) {
            spec.stages.push_back(
                read_policy_spec(is, path, max_kind, /*is_stage=*/true));
        }
    }
    return spec;
}

}  // namespace

const char*
to_string(PolicyKind kind)
{
    switch (kind) {
      case PolicyKind::kNone: return "none";
      case PolicyKind::kReplay: return "replay";
      case PolicyKind::kSample: return "sample";
      case PolicyKind::kFixed: return "fixed";
      case PolicyKind::kShuffle: return "shuffle";
      case PolicyKind::kComposed: return "composed";
    }
    return "?";
}

void
save_bundle(const std::string& path, const BundleContents& contents)
{
    // The save side runs in the trusted training process: argument
    // mistakes are programmer errors and fail fast, like any other
    // local misuse.
    SHREDDER_REQUIRE(contents.network != nullptr,
                     "save_bundle: null network");
    const nn::Sequential& net = *contents.network;
    SHREDDER_REQUIRE(contents.cut >= 0 && contents.cut <= net.size(),
                     "save_bundle: cut ", contents.cut,
                     " out of range for a ", net.size(), "-layer network");
    SHREDDER_REQUIRE(contents.input_shape.rank() >= 1 &&
                         contents.input_shape.rank() <= 3,
                     "save_bundle: input shape must be per-sample "
                     "(rank 1-3), got ",
                     contents.input_shape.to_string());
    const Shape act =
        activation_shape_at(net, contents.cut, contents.input_shape);

    const core::NoiseCollection empty_collection;
    const core::NoiseCollection& collection =
        contents.collection != nullptr ? *contents.collection
                                       : empty_collection;
    if (!collection.empty()) {
        SHREDDER_REQUIRE(collection.noise_shape().numel() == act.numel(),
                         "save_bundle: collection noise shape ",
                         collection.noise_shape().to_string(),
                         " does not match cut activation ",
                         act.to_string());
    }
    if (contents.distribution != nullptr) {
        SHREDDER_REQUIRE(
            contents.distribution->location().shape().numel() ==
                act.numel(),
            "save_bundle: distribution shape ",
            contents.distribution->location().shape().to_string(),
            " does not match cut activation ", act.to_string());
    }
    const bool has_fixed =
        spec_uses(contents.policy, PolicyKind::kFixed);
    if (has_fixed) {
        SHREDDER_REQUIRE(contents.fixed_noise != nullptr &&
                             contents.fixed_noise->size() == act.numel(),
                         "save_bundle: fixed policy needs a noise tensor "
                         "matching the cut activation");
    }
    check_policy_spec(contents.policy, !collection.empty(),
                      contents.distribution != nullptr, has_fixed,
                      /*is_stage=*/false, [](const std::string& why) {
                          SHREDDER_REQUIRE(false, "save_bundle: ", why);
                      });

    std::ofstream os(path, std::ios::binary);
    SHREDDER_REQUIRE(os.good(), "save_bundle: cannot open for write: ",
                     path);
    wire::write_u32(os, kBundleMagic);
    wire::write_u32(os, kBundleVersion);
    write_policy_spec(os, contents.policy);
    wire::write_shape(os, contents.input_shape);
    wire::write_u64(os, static_cast<std::uint64_t>(contents.cut));
    // Version 3: transport hints follow the cut index.
    wire::write_u8(os, static_cast<std::uint8_t>(contents.wire_dtype));
    wire::write_u8(os, contents.int8_compute ? 1 : 0);
    nn::save_arch(os, net);
    wire::write_u8(os, contents.distribution != nullptr ? 1 : 0);
    if (contents.distribution != nullptr) {
        contents.distribution->save(os);
    }
    collection.save(os);
    wire::write_u8(os, has_fixed ? 1 : 0);
    if (has_fixed) {
        write_tensor(os, *contents.fixed_noise);
    }
    wire::write_u32(os, kEndMagic);
    SHREDDER_REQUIRE(os.good(), "save_bundle: write failed: ", path);
}

Shape
Bundle::batched_input_shape() const
{
    return batched(input_shape_);
}

void
Bundle::adopt_network(std::shared_ptr<nn::Sequential> canonical)
{
    SHREDDER_CHECK(canonical != nullptr,
                   "adopt_network() of a null network");
    // The registry guarantees byte-identical content; the structural
    // invariants validated at load time (cut range, activation shape)
    // therefore keep holding. Cheap sanity check only.
    SHREDDER_CHECK(canonical->size() == network_->size(),
                   "adopt_network(): canonical layer count ",
                   canonical->size(), " != loaded ", network_->size());
    network_ = std::move(canonical);
}

std::shared_ptr<const runtime::NoisePolicy>
Bundle::make_policy() const
{
    return make_policy_for(policy_);
}

std::shared_ptr<const runtime::NoisePolicy>
Bundle::make_policy_for(const PolicySpec& spec) const
{
    switch (spec.kind) {
      case PolicyKind::kNone:
        return std::make_shared<runtime::NoNoisePolicy>();
      case PolicyKind::kReplay:
        return std::make_shared<runtime::ReplayPolicy>(collection_,
                                                       spec.seed);
      case PolicyKind::kSample:
        return std::make_shared<runtime::SamplePolicy>(*distribution_,
                                                       spec.seed);
      case PolicyKind::kFixed:
        return std::make_shared<runtime::FixedNoisePolicy>(fixed_noise_);
      case PolicyKind::kShuffle:
        if (spec.rank_matched) {
            return std::make_shared<runtime::ShufflePolicy>(*distribution_,
                                                            spec.seed);
        }
        return std::make_shared<runtime::ShufflePolicy>(spec.seed);
      case PolicyKind::kComposed: {
        std::vector<std::shared_ptr<const runtime::NoisePolicy>> stages;
        stages.reserve(spec.stages.size());
        for (const PolicySpec& stage : spec.stages) {
            stages.push_back(make_policy_for(stage));
        }
        return std::make_shared<runtime::ComposedPolicy>(std::move(stages));
      }
    }
    SHREDDER_PANIC("unreachable policy kind");
}

Bundle
load_bundle(const std::string& path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is.good()) {
        bad_bundle(path, "cannot open file");
    }

    // Everything below parses untrusted bytes: serialize errors AND
    // user-error checks deep in the stack (layer shape rules during
    // activation-shape validation) must fail the load, not the
    // process.
    ScopedFatalThrow trust_boundary;
    try {
        const std::uint32_t magic = wire::read_u32(is);
        if (magic != kBundleMagic) {
            bad_bundle(path, "bad magic (not a Shredder bundle)");
        }
        const std::uint32_t version = wire::read_u32(is);
        if (version == 0 || version > kBundleVersion) {
            std::ostringstream oss;
            oss << "bundle '" << path << "': format version " << version
                << " (this build reads <= " << kBundleVersion << ")";
            throw ServingError(ServingErrorCode::kVersionMismatch,
                               oss.str());
        }

        Bundle b;
        // Version-1 files know only the four additive kinds and carry
        // no spec extras; version 2 added shuffle/composed encodings.
        const std::uint32_t max_kind =
            version >= 2 ? static_cast<std::uint32_t>(PolicyKind::kComposed)
                         : static_cast<std::uint32_t>(PolicyKind::kFixed);
        b.policy_ = read_policy_spec(is, path, max_kind,
                                     /*is_stage=*/false);
        b.input_shape_ = wire::read_shape(is);
        if (b.input_shape_.rank() < 1 || b.input_shape_.rank() > 3) {
            bad_bundle(path, "input shape must be per-sample (rank 1-3)");
        }
        const auto cut = static_cast<std::int64_t>(wire::read_u64(is));
        if (version >= 3) {
            const std::uint8_t wire_code = wire::read_u8(is);
            if (wire_code > static_cast<std::uint8_t>(WireDtype::kI16)) {
                bad_bundle(path, "unknown wire dtype code");
            }
            b.wire_dtype_ = static_cast<WireDtype>(wire_code);
            const std::uint8_t int8_flag = wire::read_u8(is);
            if (int8_flag > 1) {
                bad_bundle(path, "bad int8_compute flag");
            }
            b.int8_compute_ = int8_flag == 1;
        }
        b.network_ = nn::load_arch(is);
        if (cut < 0 || cut > b.network_->size()) {
            bad_bundle(path, "cut index out of range");
        }
        b.cut_ = cut;
        // Cross-validate topology × input × cut: throws (FatalError,
        // converted below) when the stored pieces are inconsistent.
        b.activation_shape_ =
            activation_shape_at(*b.network_, b.cut_, b.input_shape_);

        if (wire::read_u8(is) != 0) {
            b.distribution_ = core::NoiseDistribution::load(is);
            if (b.distribution_->location().shape().numel() !=
                b.activation_shape_.numel()) {
                bad_bundle(path,
                           "distribution shape does not match the cut "
                           "activation");
            }
        }
        b.collection_ = core::NoiseCollection::load(is);
        if (!b.collection_.empty() &&
            b.collection_.noise_shape().numel() !=
                b.activation_shape_.numel()) {
            bad_bundle(path,
                       "collection noise shape does not match the cut "
                       "activation");
        }
        if (wire::read_u8(is) != 0) {
            b.fixed_noise_ = read_tensor_checked(is);
            if (b.fixed_noise_.size() != b.activation_shape_.numel()) {
                bad_bundle(path,
                           "fixed noise tensor does not match the cut "
                           "activation");
            }
        }

        check_policy_spec(b.policy_, !b.collection_.empty(),
                          b.distribution_.has_value(),
                          !b.fixed_noise_.empty(), /*is_stage=*/false,
                          [&path](const std::string& why) {
                              bad_bundle(path, why);
                          });

        wire::expect_magic(is, kEndMagic, "bundle end marker");
        is.peek();
        if (!is.eof()) {
            bad_bundle(path, "trailing bytes after end marker");
        }
        return b;
    } catch (const SerializeError& e) {
        bad_bundle(path, e.what());
    } catch (const FatalError& e) {
        bad_bundle(path, std::string("inconsistent contents: ") + e.what());
    }
}

std::vector<ManifestEntry>
parse_manifest(const std::string& path)
{
    std::ifstream is(path);
    if (!is.good()) {
        throw ServingError(ServingErrorCode::kBadBundle,
                           "manifest '" + path + "': cannot open file");
    }
    const std::filesystem::path manifest_dir =
        std::filesystem::path(path).parent_path();

    auto fail = [&path](int line_no, const std::string& why) -> void {
        std::ostringstream oss;
        oss << "manifest '" << path << "' line " << line_no << ": " << why;
        throw ServingError(ServingErrorCode::kBadBundle, oss.str());
    };

    std::vector<ManifestEntry> entries;
    std::string line;
    int line_no = 0;
    while (std::getline(is, line)) {
        ++line_no;
        std::istringstream tokens(line);
        std::string directive;
        if (!(tokens >> directive) || directive[0] == '#') {
            continue;  // Blank line or comment.
        }
        if (directive != "endpoint") {
            fail(line_no, "unknown directive '" + directive + "'");
        }
        ManifestEntry entry;
        std::string bundle_path;
        if (!(tokens >> entry.name >> bundle_path)) {
            fail(line_no, "expected: endpoint <name> <bundle-path>");
        }
        for (const auto& existing : entries) {
            if (existing.name == entry.name) {
                fail(line_no,
                     "duplicate endpoint name '" + entry.name + "'");
            }
        }
        std::filesystem::path resolved(bundle_path);
        if (resolved.is_relative()) {
            resolved = manifest_dir / resolved;
        }
        entry.bundle_path = resolved.string();

        std::string option;
        while (tokens >> option) {
            const auto eq = option.find('=');
            if (eq == std::string::npos || eq == 0 ||
                eq + 1 == option.size()) {
                fail(line_no, "expected key=value, got '" + option + "'");
            }
            const std::string key = option.substr(0, eq);
            const std::string value = option.substr(eq + 1);
            // Values must parse *completely*: "max_batch=4x2" is a
            // typo, not a 4.
            std::size_t consumed = 0;
            // std::stod accepts "nan" and "inf", and NaN passes every
            // range check below, so non-finite numbers fail here.
            const auto parse_finite = [&]() {
                const double number = std::stod(value, &consumed);
                if (!std::isfinite(number)) {
                    fail(line_no, key + " must be finite");
                }
                return number;
            };
            try {
                if (key == "max_batch") {
                    entry.config.max_batch = std::stoll(value, &consumed);
                    if (entry.config.max_batch <= 0) {
                        fail(line_no, "max_batch must be positive");
                    }
                } else if (key == "batch_timeout_ms") {
                    entry.config.batch_timeout_ms = parse_finite();
                    if (entry.config.batch_timeout_ms < 0.0) {
                        fail(line_no, "batch_timeout_ms must be >= 0");
                    }
                } else if (key == "max_concurrent_batches") {
                    entry.config.max_concurrent_batches =
                        std::stoll(value, &consumed);
                    if (entry.config.max_concurrent_batches < 0) {
                        fail(line_no,
                             "max_concurrent_batches must be >= 0");
                    }
                } else if (key == "adaptive_batching") {
                    if (value == "true" || value == "1") {
                        entry.config.adaptive_batching = true;
                    } else if (value == "false" || value == "0") {
                        entry.config.adaptive_batching = false;
                    } else {
                        fail(line_no, "adaptive_batching must be "
                                      "true/false/1/0");
                    }
                    consumed = value.size();
                } else if (key == "slo_ms") {
                    entry.config.slo_ms = parse_finite();
                    if (entry.config.slo_ms < 0.0) {
                        fail(line_no, "slo_ms must be >= 0");
                    }
                } else if (key == "ewma_alpha") {
                    entry.config.ewma_alpha = parse_finite();
                    if (entry.config.ewma_alpha <= 0.0 ||
                        entry.config.ewma_alpha > 1.0) {
                        fail(line_no, "ewma_alpha must be in (0, 1]");
                    }
                } else if (key == "wire_dtype") {
                    WireDtype dtype;
                    if (!parse_wire_dtype(value, &dtype)) {
                        fail(line_no,
                             "wire_dtype must be fp32/int8/int16");
                    }
                    entry.config.wire_dtype = dtype;
                    consumed = value.size();
                } else if (key == "int8_compute") {
                    if (value == "true" || value == "1") {
                        entry.config.int8_compute = true;
                    } else if (value == "false" || value == "0") {
                        entry.config.int8_compute = false;
                    } else {
                        fail(line_no,
                             "int8_compute must be true/false/1/0");
                    }
                    consumed = value.size();
                } else if (key == "shard") {
                    // Placement key — validated against the engine's
                    // shard table at registration, not here.
                    entry.config.shard = value;
                    consumed = value.size();
                } else if (key == "rate_limit_qps") {
                    entry.config.rate_limit_qps = parse_finite();
                    if (entry.config.rate_limit_qps < 0.0) {
                        fail(line_no, "rate_limit_qps must be >= 0");
                    }
                } else if (key == "rate_limit_burst") {
                    entry.config.rate_limit_burst = parse_finite();
                    if (entry.config.rate_limit_burst < 0.0) {
                        fail(line_no, "rate_limit_burst must be >= 0");
                    }
                } else if (key == "max_in_flight") {
                    entry.config.max_in_flight =
                        std::stoll(value, &consumed);
                    if (entry.config.max_in_flight < 0) {
                        fail(line_no, "max_in_flight must be >= 0");
                    }
                } else {
                    fail(line_no, "unknown key '" + key + "'");
                }
            } catch (const ServingError&) {
                throw;
            } catch (const std::exception&) {
                fail(line_no,
                     "malformed value for '" + key + "': '" + value + "'");
            }
            if (consumed != value.size()) {
                fail(line_no, "malformed value for '" + key + "': '" +
                                  value + "'");
            }
        }
        entries.push_back(std::move(entry));
    }
    return entries;
}

}  // namespace deploy
}  // namespace shredder
