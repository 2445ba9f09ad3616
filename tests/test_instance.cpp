// Instance as a first-class value (S45): PowerSpec, equality, fingerprints,
// and the canonical JSON codec every text consumer shares.

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mpss/core/instance_json.hpp"
#include "mpss/core/job.hpp"
#include "mpss/core/power.hpp"
#include "mpss/solve.hpp"
#include "mpss/util/json.hpp"
#include "mpss/util/random.hpp"
#include "mpss/workload/generators.hpp"
#include "mpss/workload/traces.hpp"

namespace mpss {
namespace {

Instance small_instance() {
  return Instance({Job{Q(0), Q(8), Q(6)}, Job{Q(2), Q(4), Q(6)},
                   Job{Q(2), Q(4), Q(4)}},
                  2);
}

Instance fractional_instance() {
  return Instance({Job{Q(0), Q(1, 2), Q(2, 3)}, Job{Q(1, 3), Q(5, 6), Q(1, 7)},
                   Job{Q(1, 4), Q(2), Q(3, 2)}},
                  2);
}

// ---- PowerSpec -------------------------------------------------------------

TEST(PowerSpec, DefaultIsCubeAndFingerprintsLikeAlphaThree) {
  PowerSpec spec;
  EXPECT_TRUE(spec.is_default());
  EXPECT_EQ(spec.kind(), PowerSpec::Kind::kDefault);
  // kDefault instantiates P(s) = s^3, so it must hash like alpha(3): the
  // service cache treats "no spec" and "explicit cube" as the same work.
  EXPECT_EQ(spec.fingerprint(), PowerSpec::alpha(3.0).fingerprint());
  EXPECT_NE(spec.fingerprint(), 0u);
}

TEST(PowerSpec, FactoriesValidateEagerly) {
  EXPECT_NO_THROW(PowerSpec::alpha(2.5));
  EXPECT_THROW(PowerSpec::alpha(0.5), std::invalid_argument);
  EXPECT_THROW(PowerSpec::piecewise({}), std::invalid_argument);
  EXPECT_NO_THROW(PowerSpec::cubic_leakage(1.0, 0.5, 0.25));
}

TEST(PowerSpec, InstantiateMatchesTheUnderlyingFunction) {
  auto p = PowerSpec::alpha(2.0).instantiate();
  EXPECT_DOUBLE_EQ(p->power(3.0), 9.0);
  auto leaky = PowerSpec::cubic_leakage(1.0, 0.5, 0.25).instantiate();
  EXPECT_DOUBLE_EQ(leaky->power(2.0), 8.0 + 1.0 + 0.25);
}

TEST(PowerSpec, KindNamesRoundTrip) {
  for (PowerSpec::Kind kind :
       {PowerSpec::Kind::kDefault, PowerSpec::Kind::kAlpha,
        PowerSpec::Kind::kPiecewise, PowerSpec::Kind::kCubicLeakage}) {
    EXPECT_EQ(PowerSpec::kind_from_name(PowerSpec::kind_name(kind)), kind);
  }
  EXPECT_THROW((void)PowerSpec::kind_from_name("nope"), std::invalid_argument);
}

TEST(PowerSpec, EqualityComparesKindAndParameters) {
  EXPECT_EQ(PowerSpec::alpha(2.0), PowerSpec::alpha(2.0));
  EXPECT_NE(PowerSpec::alpha(2.0), PowerSpec::alpha(3.0));
  EXPECT_NE(PowerSpec{}, PowerSpec::alpha(3.0));  // distinct kinds, same P
  EXPECT_EQ(PowerSpec::cubic_leakage(1, 2, 3), PowerSpec::cubic_leakage(1, 2, 3));
}

// ---- Instance value semantics ---------------------------------------------

TEST(InstanceValue, EqualityAndPowerAccessors) {
  Instance a = small_instance();
  Instance b = small_instance();
  EXPECT_EQ(a, b);
  EXPECT_TRUE(a.power().is_default());

  Instance c = a.with_power(PowerSpec::alpha(2.0));
  EXPECT_NE(a, c);
  EXPECT_EQ(c.power(), PowerSpec::alpha(2.0));
  // with_power leaves jobs and machines untouched.
  EXPECT_EQ(c.size(), a.size());
  EXPECT_EQ(c.machines(), a.machines());
}

TEST(InstanceValue, FingerprintIsStableAndDiscriminates) {
  Instance a = small_instance();
  EXPECT_EQ(a.fingerprint(), small_instance().fingerprint());
  EXPECT_NE(a.fingerprint(), 0u);

  EXPECT_NE(a.fingerprint(), a.with_machines(3).fingerprint());
  EXPECT_NE(a.fingerprint(),
            a.with_power(PowerSpec::alpha(2.0)).fingerprint());
  Instance different_jobs({Job{Q(0), Q(8), Q(6)}, Job{Q(2), Q(4), Q(6)},
                           Job{Q(2), Q(4), Q(5)}},
                          2);
  EXPECT_NE(a.fingerprint(), different_jobs.fingerprint());
}

TEST(InstanceValue, FingerprintsArePinnedForEveryPowerKind) {
  // Recorded literals: the result cache and the codec-shared identity key on
  // these values, so neither the instance's nor the spec's fingerprint (nor
  // the spec's name) may drift when their implementation changes.
  const Instance base =
      load_instance(std::string(MPSS_DATA_DIR) + "/uniform_m3.instance.json");
  struct Pin {
    PowerSpec power;
    std::uint64_t instance_fp;
    std::uint64_t spec_fp;
    const char* name;
  };
  const Pin pins[] = {
      {PowerSpec{}, 0xfcfffa7ca00192f7ull, 0x543b815802f39a0aull, "s^3"},
      {PowerSpec::alpha(3.0), 0xfcfffa7ca00192f7ull, 0x543b815802f39a0aull, "s^3"},
      {PowerSpec::alpha(2.5), 0xecfec829262cc0a6ull, 0x542d695802e733e6ull,
       "s^2.5"},
      {PowerSpec::piecewise({{0.0, 0.0}, {1.0, 1.0}, {2.0, 4.0}}),
       0x1cd33db5acfd17b8ull, 0x3dbc995f51623e92ull, "piecewise[3]"},
      {PowerSpec::cubic_leakage(1.0, 0.5, 0.25), 0x7804e0ffc1ec66e4ull,
       0x2b2c9d87f4ff632dull, "1*s^3+0.5*s+0.25"},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(pin.name);
    EXPECT_EQ(base.with_power(pin.power).fingerprint(), pin.instance_fp);
    EXPECT_EQ(pin.power.fingerprint(), pin.spec_fp);
    EXPECT_EQ(pin.power.name(), pin.name);
    EXPECT_EQ(pin.power.name(), pin.power.instantiate()->name());
  }
}

TEST(InstanceValue, DerivedInstancesCarryThePowerSpec) {
  Instance a = fractional_instance().with_power(PowerSpec::alpha(2.0));
  EXPECT_EQ(a.with_machines(4).power(), PowerSpec::alpha(2.0));
  EXPECT_EQ(a.scaled_to_integral_times().power(), PowerSpec::alpha(2.0));
}

// ---- JSON codec ------------------------------------------------------------

TEST(InstanceJson, RoundTripIsBitExact) {
  Instance original = fractional_instance().with_power(PowerSpec::alpha(2.0));
  Instance decoded = instance_from_json(instance_to_json(original));
  EXPECT_EQ(original, decoded);
  EXPECT_EQ(original.fingerprint(), decoded.fingerprint());
  // Canonical form: serializing the decoded copy reproduces the text.
  EXPECT_EQ(instance_to_json(original), instance_to_json(decoded));
}

TEST(InstanceJson, CanonicalDocumentShape) {
  Instance instance({Job{Q(0), Q(1, 2), Q(2, 3)}}, 2);
  EXPECT_EQ(instance_to_json(instance),
            R"({"mpss_instance":1,"machines":2,"power":{"kind":"default"},)"
            R"("jobs":[["0","1/2","2/3"]]})");
}

TEST(InstanceJson, PowerMemberIsOptionalOnInput) {
  Instance decoded = instance_from_json(
      R"({"mpss_instance":1,"machines":1,"jobs":[["0","1","1"]]})");
  EXPECT_TRUE(decoded.power().is_default());
}

TEST(InstanceJson, EveryPowerKindRoundTrips) {
  std::vector<PowerSpec> specs = {
      PowerSpec{}, PowerSpec::alpha(2.5),
      PowerSpec::piecewise({{0.0, 0.0}, {1.0, 1.0}, {2.0, 8.0}}),
      PowerSpec::cubic_leakage(1.0, 0.5, 0.25)};
  for (const PowerSpec& spec : specs) {
    PowerSpec decoded = power_spec_from_json_value(power_spec_to_json_value(spec));
    EXPECT_EQ(spec, decoded) << spec.name();
  }
}

TEST(InstanceJson, RejectsMalformedDocuments) {
  // Wrong version.
  EXPECT_THROW(instance_from_json(
                   R"({"mpss_instance":2,"machines":1,"jobs":[]})"),
               std::invalid_argument);
  // Missing version.
  EXPECT_THROW(instance_from_json(R"({"machines":1,"jobs":[]})"),
               std::invalid_argument);
  // Zero machines (Instance validation).
  EXPECT_THROW(instance_from_json(
                   R"({"mpss_instance":1,"machines":0,"jobs":[["0","1","1"]]})"),
               std::invalid_argument);
  // Rational with a zero denominator must surface as invalid_argument.
  EXPECT_THROW(instance_from_json(
                   R"({"mpss_instance":1,"machines":1,"jobs":[["0","1/0","1"]]})"),
               std::invalid_argument);
  // Numbers instead of rational strings (doubles are not exact-safe).
  EXPECT_THROW(instance_from_json(
                   R"({"mpss_instance":1,"machines":1,"jobs":[[0,1,1]]})"),
               std::invalid_argument);
  // A job that fails Instance validation (release >= deadline).
  EXPECT_THROW(instance_from_json(
                   R"({"mpss_instance":1,"machines":1,"jobs":[["2","1","1"]]})"),
               std::invalid_argument);
  // Not JSON at all.
  EXPECT_THROW(instance_from_json("release,deadline,work"),
               std::invalid_argument);
}

TEST(InstanceJson, GeneratedInstancesRoundTrip) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Instance original = generate_uniform(
        {.jobs = 12, .machines = 3, .horizon = 20, .max_window = 9,
         .max_work = 7},
        seed);
    Instance decoded = instance_from_json(instance_to_json(original));
    EXPECT_EQ(original, decoded);
  }
}

TEST(InstanceJson, TraceLayerDispatchesOnJsonSuffix) {
  Instance original = fractional_instance().with_power(PowerSpec::alpha(2.0));
  std::string path = testing::TempDir() + "mpss_instance_roundtrip.json";
  save_instance(original, path);  // suffix picks the JSON codec
  EXPECT_EQ(load_instance(path), original);
  // The CSV path has no column for the power spec; JSON is the lossless form.
  std::string csv_path = testing::TempDir() + "mpss_instance_roundtrip.csv";
  save_instance(original, csv_path);
  EXPECT_EQ(load_instance(csv_path).power(), PowerSpec{});
}

// ---- facade integration ----------------------------------------------------

TEST(InstancePower, SolveUsesTheInstanceSpec) {
  Instance cube = small_instance();  // default spec: P(s) = s^3
  Instance square = cube.with_power(PowerSpec::alpha(2.0));
  SolveResult cube_result = solve(cube);
  SolveResult square_result = solve(square);
  ASSERT_TRUE(cube_result.ok());
  ASSERT_TRUE(square_result.ok());
  // Same schedule (power-independent), different measured energy.
  EXPECT_NE(cube_result.energy, square_result.energy);

  // The spec is the only power source; measuring the returned schedule under
  // another function is the caller's own call.
  ASSERT_NE(cube_result.exact_schedule(), nullptr);
  EXPECT_DOUBLE_EQ(square_result.energy,
                   cube_result.exact_schedule()->energy(AlphaPower(2.0)));
}

TEST(InstancePower, ErrorDetailIsEmptyExactlyWhenOk) {
  SolveResult ok = solve(small_instance());
  EXPECT_TRUE(ok.ok());
  EXPECT_TRUE(ok.error_detail.empty());

  SolveOptions bad;
  bad.lp_grid = 1;  // validate() rejects lp_grid < 2
  bad.engine = Engine::kLp;
  SolveResult invalid = solve(small_instance(), bad);
  EXPECT_EQ(invalid.status, SolveStatus::kInvalidOptions);
  EXPECT_FALSE(invalid.error_detail.empty());
}

// ---- the JSON cursor (the one tokenizer under parse()) -----------------------

TEST(JsonCursor, WalksADocumentWithoutBuildingIt) {
  json::Cursor cursor(R"( {"a\u0062":[1, "x\n", true, null], "c": {"d": -2.5e1}} )");
  ASSERT_EQ(cursor.peek(), json::Cursor::Kind::kObject);
  ASSERT_TRUE(cursor.begin_object());
  EXPECT_EQ(cursor.key(), "ab");
  ASSERT_TRUE(cursor.begin_array());
  EXPECT_EQ(cursor.read_number(), 1.0);
  ASSERT_TRUE(cursor.next_element());
  EXPECT_EQ(cursor.read_string(), "x\n");
  ASSERT_TRUE(cursor.next_element());
  const json::Cursor::Mark at_bool = cursor.mark();
  EXPECT_THROW((void)cursor.read_number(), std::invalid_argument);  // wrong type
  EXPECT_TRUE(cursor.read_bool());
  cursor.rewind(at_bool);
  EXPECT_TRUE(cursor.read_bool());
  ASSERT_TRUE(cursor.next_element());
  cursor.read_null();
  EXPECT_FALSE(cursor.next_element());
  ASSERT_TRUE(cursor.next_member());
  EXPECT_EQ(cursor.key(), "c");
  cursor.skip_value();
  EXPECT_FALSE(cursor.next_member());
  cursor.finish();
}

TEST(JsonCursor, WrongTypesAreNotSyntaxErrors) {
  auto kind_of_failure = [](const char* text, auto read) {
    json::Cursor cursor(text);
    try {
      read(cursor);
    } catch (const json::SyntaxError&) {
      return 2;
    } catch (const std::invalid_argument&) {
      return 1;
    }
    return 0;
  };
  auto number = [](json::Cursor& c) { (void)c.read_number(); };
  auto string = [](json::Cursor& c) { (void)c.read_string(); };
  auto object = [](json::Cursor& c) { (void)c.begin_object(); };
  EXPECT_EQ(kind_of_failure("\"7\"", number), 1);
  EXPECT_EQ(kind_of_failure("7", string), 1);
  EXPECT_EQ(kind_of_failure("[]", object), 1);
  EXPECT_EQ(kind_of_failure("-", number), 2);
  EXPECT_EQ(kind_of_failure("1e", number), 2);
  EXPECT_EQ(kind_of_failure("\"ab", string), 2);
  EXPECT_EQ(kind_of_failure("\"\\ud800\"", string), 2);
  EXPECT_EQ(kind_of_failure("", number), 2);
  EXPECT_THROW((void)json::parse("[1,]"), json::SyntaxError);
  EXPECT_THROW((void)json::parse("{\"a\":1,}"), json::SyntaxError);
  EXPECT_THROW((void)json::parse("{\"a\" 1}"), json::SyntaxError);
  EXPECT_THROW((void)json::parse("nul"), json::SyntaxError);
  EXPECT_THROW((void)json::parse("1 2"), json::SyntaxError);
}

TEST(JsonCursor, DepthCapMatchesBetweenParseAndSkip) {
  auto nested = [](std::size_t arrays) {
    return std::string(arrays, '[') + std::string(arrays, ']');
  };
  const std::size_t deepest = json::kMaxDepth + 1;  // innermost array at depth 96
  EXPECT_NO_THROW((void)json::parse(nested(deepest)));
  EXPECT_THROW((void)json::parse(nested(deepest + 1)), json::SyntaxError);
  const std::string ok_text = nested(deepest);
  const std::string deep_text = nested(deepest + 1);
  json::Cursor ok(ok_text);  // the cursor views the text; it must outlive it
  EXPECT_NO_THROW(ok.skip_value());
  json::Cursor too_deep(deep_text);
  EXPECT_THROW(too_deep.skip_value(), json::SyntaxError);
}

TEST(JsonCursor, NumbersAreBitIdenticalToStrtod) {
  std::vector<std::string> tokens = {
      "0", "-0", "1.", "1.e5", "00.5", "1e400", "-1e400", "1e-400", "-1e-400",
      "4.9e-324", "2.4e-324", "2.5e-324", "1e-310", "1.7976931348623158e308",
      "1.7976931348623159e308", "2.2250738585072011e-308", "0.1", "1E+5",
      "123456789012345678901234567890", "9007199254740993"};
  Xoshiro256 rng(99);
  for (int i = 0; i < 3000; ++i) {
    char buffer[48];
    double value = std::bit_cast<double>(rng());
    if (!std::isfinite(value)) continue;
    std::snprintf(buffer, sizeof buffer, "%.*g", static_cast<int>(1 + rng.below(20)), value);
    tokens.emplace_back(buffer);
  }
  for (const std::string& token : tokens) {
    json::Cursor cursor(token);
    const double got = cursor.read_number();
    const double want = std::strtod(token.c_str(), nullptr);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got), std::bit_cast<std::uint64_t>(want))
        << token;
  }
}

TEST(JsonCursor, WriteNumberMatchesPrintf) {
  Xoshiro256 rng(5);
  for (int i = 0; i < 5000; ++i) {
    double value = i % 2 == 0 ? std::bit_cast<double>(rng())
                              : static_cast<double>(rng.below(1u << 20)) / 64.0;
    if (!std::isfinite(value)) continue;
    std::string written;
    json::write_number(value, written);
    char expected[40];
    if (std::fabs(value) < 1e15 &&
        value == static_cast<double>(static_cast<long long>(value))) {
      std::snprintf(expected, sizeof expected, "%lld", static_cast<long long>(value));
    } else {
      std::snprintf(expected, sizeof expected, "%.17g", value);
    }
    EXPECT_EQ(written, expected);
  }
}

}  // namespace
}  // namespace mpss
