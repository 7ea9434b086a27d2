// Tests for CSV writing/parsing, the JSON reader, table rendering, and
// the argv parser.

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <iomanip>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "io/args.hpp"
#include "io/csv.hpp"
#include "io/json.hpp"
#include "io/table.hpp"
#include "mathx/rng.hpp"
#include "support/io.hpp"

namespace {

using namespace rv::io;

// ---------------------------------------------------------------------------
// CSV
// ---------------------------------------------------------------------------

std::string csv_field(const std::string& field) {
  std::string out;
  append_csv_field(out, field);
  return out;
}

TEST(Csv, EscapingRules) {
  EXPECT_EQ(csv_field("plain"), "plain");
  EXPECT_EQ(csv_field("with,comma"), "\"with,comma\"");
  EXPECT_EQ(csv_field("with\"quote"), "\"with\"\"quote\"");
  EXPECT_EQ(csv_field("with\nnewline"), "\"with\nnewline\"");
  EXPECT_EQ(csv_field("cr\r"), "\"cr\r\"");
  EXPECT_EQ(csv_field(""), "");
}

TEST(Csv, AppendRowEscapesEachFieldAndEndsTheLine) {
  std::string out = "prefix;";
  append_csv_row(out, {"plain", "a,b", "q\"uote", "", "1.5"});
  EXPECT_EQ(out, "prefix;plain,\"a,b\",\"q\"\"uote\",,1.5\n");
}

TEST(Csv, ParseRoundTrip) {
  const std::string text = "a,b\n1,\"x,y\"\n\"q\"\"uote\",2\n";
  const auto rows = parse_csv(text);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0], (CsvRow{"a", "b"}));
  EXPECT_EQ(rows[1], (CsvRow{"1", "x,y"}));
  EXPECT_EQ(rows[2], (CsvRow{"q\"uote", "2"}));
}

TEST(Csv, ParseHandlesCrlfAndMissingTrailingNewline) {
  const auto rows = parse_csv("a,b\r\nc,d");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1], (CsvRow{"c", "d"}));
}

TEST(Csv, ParseEmbeddedNewlineInQuotes) {
  const auto rows = parse_csv("\"line1\nline2\",x\n");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], "line1\nline2");
}

TEST(Csv, ParseUnterminatedQuoteThrows) {
  EXPECT_THROW((void)parse_csv("\"oops"), std::invalid_argument);
}

TEST(Csv, AppendedRowsRoundTripThroughParser) {
  std::string out;
  append_csv_row(out, {"x", "note"});
  append_csv_row(out, {"1.5", "a,b\nc\"d"});
  const auto rows = parse_csv(out);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1][1], "a,b\nc\"d");
}

TEST(Csv, FormatDouble) {
  EXPECT_EQ(format_double(1.5), "1.5");
  EXPECT_EQ(format_double(2.0), "2");
}

// ---------------------------------------------------------------------------
// Number formatting: the to_chars formatters against the iostream
// implementations they replaced (kept here only as the oracle).
// ---------------------------------------------------------------------------

std::string oracle_double(double v, int precision) {
  std::ostringstream oss;
  oss.precision(precision);
  oss << v;
  return oss.str();
}

std::string oracle_fixed(double v, int precision) {
  std::ostringstream os;
  const double mag = v < 0 ? -v : v;
  if (mag != 0.0 && (mag >= 1e7 || mag < 1e-4)) {
    os << std::scientific << std::setprecision(precision) << v;
  } else {
    os << std::fixed << std::setprecision(precision) << v;
  }
  return os.str();
}

std::string oracle_sci(double v, int precision) {
  std::ostringstream os;
  os << std::scientific << std::setprecision(precision) << v;
  return os.str();
}

/// Every formatter at `precision` agrees with its oracle on `v`;
/// returns the number of mismatches (each also reported).
int mismatches(double v, int precision) {
  int bad = 0;
  const auto check = [&](const char* name, const std::string& got,
                         const std::string& want) {
    if (got == want) return;
    ++bad;
    ADD_FAILURE() << name << "(" << std::hexfloat << v << ", " << precision
                  << ") = \"" << got << "\", oracle \"" << want << "\"";
  };
  check("format_double", format_double(v, precision),
        oracle_double(v, precision));
  check("format_fixed", format_fixed(v, precision),
        oracle_fixed(v, precision));
  check("format_sci", format_sci(v, precision), oracle_sci(v, precision));
  return bad;
}

std::vector<double> special_values() {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> values = {
      0.0, -0.0, kInf, -kInf, kNan, -kNan,
      std::numeric_limits<double>::denorm_min(), 5e-324, DBL_MIN, DBL_MAX,
      // format_fixed's switch points, and their neighbours.
      1e7, std::nextafter(1e7, 0.0), std::nextafter(1e7, kInf),
      1e-4, std::nextafter(1e-4, 0.0), std::nextafter(1e-4, 1.0),
      // Ties and values whose shortest form is not their printf form.
      0.5, 1.5, 2.5, 0.125, 0.1, 1.0 / 3.0, 2.0 / 3.0, 9.5, 0.05, 1e15,
      1e16, 1e17, 123456789012345678.0, 9.9999999999995, 999999.5,
      0.000123456789, 4.35, 1e21, 1e-7, 1e22, 1e23, 3.141592653589793};
  const std::size_t n = values.size();
  for (std::size_t i = 0; i < n; ++i) values.push_back(-values[i]);
  return values;
}

TEST(NumberFormat, SpecialsAtEveryPrecisionMatchIostreams) {
  int bad = 0;
  for (const double v : special_values()) {
    for (int precision = 0; precision <= 17; ++precision) {
      bad += mismatches(v, precision);
    }
  }
  EXPECT_EQ(bad, 0);
}

TEST(NumberFormat, SeededRandomBitPatternsMatchIostreams) {
  rv::mathx::Xoshiro256 rng(0x5eed);
  int bad = 0;
  for (int i = 0; i < 120000 && bad < 10; ++i) {
    std::uint64_t bits = rng();
    if (i % 2 == 1) {
      // Half the draws keep the binary exponent in [-20, 40), where
      // format_fixed takes its fixed branch and %g switches forms.
      const std::uint64_t exponent = 1023 - 20 + (bits >> 58) % 60;
      bits = (bits & 0x800FFFFFFFFFFFFFull) | (exponent << 52);
    }
    bad += mismatches(std::bit_cast<double>(bits), i % 18);
  }
  EXPECT_EQ(bad, 0);
}

TEST(NumberFormat, LargePrecisionsAreNeitherRefusedNorTruncated) {
  EXPECT_EQ(format_fixed(1e6, 60), oracle_fixed(1e6, 60));
  EXPECT_EQ(format_fixed(1e6, 60), "1000000." + std::string(60, '0'));
  EXPECT_EQ(format_double(0.1, 60), oracle_double(0.1, 60));
  EXPECT_EQ(format_sci(-DBL_MAX, 400), oracle_sci(-DBL_MAX, 400));
  EXPECT_EQ(format_sci(5e-324, 800), oracle_sci(5e-324, 800));
  // The widest rendering there is: "%.*f" of -DBL_MAX.
  for (const int precision : {0, 17, 300}) {
    std::string out;
    append_number(out, -DBL_MAX, std::chars_format::fixed, precision);
    std::ostringstream os;
    os << std::fixed << std::setprecision(precision) << -DBL_MAX;
    EXPECT_EQ(out, os.str());
  }
}

TEST(NumberFormat, NegativePrecisionMeansSix) {
  for (const double v : {1.0 / 3.0, 12345678.9, -2.5e-9}) {
    EXPECT_EQ(format_double(v, -1), oracle_double(v, -1));
    EXPECT_EQ(format_fixed(v, -3), oracle_fixed(v, -3));
    EXPECT_EQ(format_sci(v, -1), oracle_sci(v, -1));
  }
}

// ---------------------------------------------------------------------------
// JSON reader
// ---------------------------------------------------------------------------

/// The offset of the JsonError that reading `text` as one value throws,
/// or npos when it parses.
std::size_t json_error_at(const std::string& text) {
  try {
    JsonReader json(text);
    json.skip_value();
    json.end();
  } catch (const JsonError& error) {
    return error.offset();
  }
  return std::string::npos;
}

TEST(JsonReader, GrammarTable) {
  const std::string valid[] = {
      "0", "-0", "12", "-1.5e+3", "1E2", "0.25", "2e-3", R"("")",
      R"("a\"\\\/\b\f\n\r\t")", R"("A\u007f")", "\"\xc3\xa9\"", "true",
      "false", "null", "[]", "{}", " \t\r\n[1, {\"a\": [true, null]}] \r\n",
      R"({"a":{"b":{"c":[{},[],"x"]}},"d":-1})"};
  for (const std::string& text : valid) {
    EXPECT_EQ(json_error_at(text), std::string::npos) << text;
  }
  const std::string invalid[] = {
      "inf", "nan", "-inf", "0x1p4", "01", "1.", "1e", "1e+", "-", ".5",
      "+1", "1e999", "1e-999", "1,5", "\"a\x01" "b\"", "\"a\nb\"",
      R"("\u0080")", R"("\u00g0")", R"("\u+0a0")", R"("\u-001")",
      R"("\u0x7f")", R"("\u00")", R"("\x")", R"("abc)", "\"\\", "tru",
      "nul", "True", "truex", "[1,]", R"({"a":1,})", R"({"a" 1})", "[1}",
      R"({"a":1])", "[1 2]", "{1:2}", "[", R"({"a":)", "[,1]", "{} x",
      "1 2", "", "   ", "\f1", "1\v"};
  for (const std::string& text : invalid) {
    EXPECT_NE(json_error_at(text), std::string::npos) << text;
  }
  const std::string deep = std::string(JsonReader::kMaxSkipDepth, '[') +
                           std::string(JsonReader::kMaxSkipDepth, ']');
  EXPECT_EQ(json_error_at(deep), std::string::npos);
  EXPECT_NE(json_error_at("[" + deep + "]"), std::string::npos);
  // The offset names the offending byte.
  EXPECT_EQ(json_error_at(R"({"a":1,"b":inf})"), 11u);
  EXPECT_EQ(json_error_at("[1,2] x"), 6u);
  EXPECT_EQ(json_error_at("\"ab\x01\""), 3u);
  EXPECT_EQ(json_error_at("1e999"), 0u);
}

TEST(JsonReader, WalksTypedValues) {
  JsonReader json(R"( {"s":"a\tbA","n":-12.5e1,"b":false,"z":null,)"
                  R"("skip":{"x":[1,{"y":"}"}]},"arr":["two"]} )");
  std::string key;
  json.begin_object();
  ASSERT_TRUE(json.next_member(&key) && key == "s");
  EXPECT_EQ(json.string(), "a\tbA");
  ASSERT_TRUE(json.next_member(&key));
  const JsonNumber n = json.number();
  EXPECT_EQ(n.raw, "-12.5e1");
  EXPECT_DOUBLE_EQ(n.value, -125.0);
  ASSERT_TRUE(json.next_member(&key));
  EXPECT_FALSE(json.boolean());
  ASSERT_TRUE(json.next_member(&key) && json.peek() == 'n');
  json.null();
  ASSERT_TRUE(json.next_member(&key));
  json.skip_value();
  ASSERT_TRUE(json.next_member(&key) && key == "arr");
  json.begin_array();
  ASSERT_TRUE(json.next_element());
  EXPECT_EQ(json.string(), "two");
  EXPECT_FALSE(json.next_element());
  EXPECT_FALSE(json.next_member(&key));
  json.end();
}

// ---------------------------------------------------------------------------
// Table
// ---------------------------------------------------------------------------

TEST(TableTest, AsciiRenderingAligns) {
  Table t({"name", "value"});
  t.set_align(0, Align::kLeft);
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22.5"});
  const std::string ascii = t.to_ascii();
  EXPECT_NE(ascii.find("| alpha |"), std::string::npos);
  EXPECT_NE(ascii.find("| b     |"), std::string::npos);
  EXPECT_NE(ascii.find("|  22.5 |"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.columns(), 2u);
}

TEST(TableTest, ArityMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
  EXPECT_THROW(t.set_align(5, Align::kLeft), std::out_of_range);
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(TableTest, PrintWritesTitleAndRows) {
  Table t({"x", "y"});
  t.add_row({format_fixed(1.23456, 3), format_fixed(2.0, 3)});
  std::ostringstream os;
  t.print(os, "title");
  EXPECT_NE(os.str().find("title"), std::string::npos);
  EXPECT_NE(os.str().find("1.235"), std::string::npos);
}

TEST(TableTest, Formatters) {
  EXPECT_EQ(format_fixed(1.23456, 2), "1.23");
  EXPECT_EQ(format_fixed(0.0, 2), "0.00");
  // Very large/small magnitudes switch to scientific form.
  EXPECT_NE(format_fixed(1.5e9, 3).find('e'), std::string::npos);
  EXPECT_NE(format_fixed(1.5e-6, 3).find('e'), std::string::npos);
  EXPECT_EQ(format_sci(12345.0, 2), "1.23e+04");
}

// ---------------------------------------------------------------------------
// Args
// ---------------------------------------------------------------------------

TEST(ArgsTest, ParsesDeclaredFlags) {
  Args args;
  args.declare("name", "default", "a string");
  args.declare_double("x", 1.5, "a double");
  args.declare_int("n", 7, "an int");
  args.declare_bool("verbose", "a flag");
  const char* argv[] = {"prog", "--name", "value", "--x", "2.25",
                        "--verbose"};
  args.parse(6, argv);
  EXPECT_EQ(args.get("name"), "value");
  EXPECT_DOUBLE_EQ(args.get_double("x"), 2.25);
  EXPECT_EQ(args.get_int("n"), 7);  // default
  EXPECT_TRUE(args.get_bool("verbose"));
  EXPECT_FALSE(args.help_requested());
}

TEST(ArgsTest, HelpFlag) {
  Args args;
  args.declare_int("n", 1, "count");
  const char* argv[] = {"prog", "--help"};
  args.parse(2, argv);
  EXPECT_TRUE(args.help_requested());
  EXPECT_NE(args.usage("prog").find("--n"), std::string::npos);
}

TEST(ArgsTest, UnknownFlagThrows) {
  Args args;
  const char* argv[] = {"prog", "--mystery", "1"};
  EXPECT_THROW(args.parse(3, argv), std::invalid_argument);
}

TEST(ArgsTest, MissingValueThrows) {
  Args args;
  args.declare_int("n", 1, "count");
  const char* argv[] = {"prog", "--n"};
  EXPECT_THROW(args.parse(2, argv), std::invalid_argument);
}

TEST(ArgsTest, MalformedNumbersThrow) {
  // Every conversion failure is an invalid_argument naming the flag.
  const auto message = [](const std::string& flag, const char* value) {
    Args args;
    args.declare_int("n", 1, "count");
    args.declare_double("x", 1.0, "value");
    const char* argv[] = {"prog", flag.c_str(), value};
    args.parse(3, argv);
    try {
      (void)(flag == "--x" ? args.get_double("x") : args.get_int("n"));
    } catch (const std::invalid_argument& error) {
      return std::string(error.what());
    }
    return std::string("no-error");
  };
  EXPECT_EQ(message("--x", "1.5abc"), "Args: malformed number for --x");
  EXPECT_EQ(message("--x", "abc"), "Args: malformed number for --x");
  EXPECT_EQ(message("--x", "1e999"), "Args: number out of range for --x");
  EXPECT_EQ(message("--n", "7.5"), "Args: malformed integer for --n");
  EXPECT_EQ(message("--n", "abc"), "Args: malformed integer for --n");
  EXPECT_EQ(message("--n", "99999999999999999999"),
            "Args: integer out of range for --n");
}

TEST(ArgsTest, TypeMismatchThrows) {
  Args args;
  args.declare_int("n", 1, "count");
  EXPECT_THROW((void)args.get_double("n"), std::invalid_argument);
  EXPECT_THROW((void)args.get("n"), std::invalid_argument);
  EXPECT_THROW((void)args.get_bool("n"), std::invalid_argument);
}

TEST(ArgsTest, PositionalArgumentRejected) {
  Args args;
  const char* argv[] = {"prog", "stray"};
  EXPECT_THROW(args.parse(2, argv), std::invalid_argument);
}

}  // namespace
