#include "circuit/qasm.h"

#include <cctype>
#include <cmath>
#include <map>
#include <numbers>
#include <sstream>

namespace qfab {

namespace {

constexpr double kPi = std::numbers::pi;

// ---------------------------------------------------------------- export

void write_angle(std::ostream& os, double theta) {
  // Render common multiples of pi symbolically for readability.
  const double ratio = theta / kPi;
  for (int den = 1; den <= 64; den *= 2) {
    const double num = ratio * den;
    if (std::abs(num - std::round(num)) < 1e-12) {
      const auto n = static_cast<long>(std::round(num));
      if (n == 0) {
        os << "0";
      } else {
        if (n == -1) os << "-pi";
        else if (n == 1) os << "pi";
        else os << n << "*pi";
        if (den > 1) os << "/" << den;
      }
      return;
    }
  }
  std::ostringstream tmp;
  tmp.precision(17);
  tmp << theta;
  os << tmp.str();
}

struct QubitNamer {
  std::vector<std::pair<std::string, QubitRange>> regs;

  explicit QubitNamer(const QuantumCircuit& qc) {
    regs = qc.registers();
    if (regs.empty()) regs.push_back({"q", QubitRange{0, qc.num_qubits()}});
  }

  std::string operator()(int qubit) const {
    for (const auto& [name, range] : regs)
      if (qubit >= range.start && qubit < range.start + range.size) {
        std::ostringstream os;
        os << name << '[' << (qubit - range.start) << ']';
        return os.str();
      }
    QFAB_CHECK_MSG(false, "qubit " << qubit << " not covered by registers");
    return {};
  }
};

void emit_gate(std::ostream& os, const Gate& g, const QubitNamer& name) {
  const int t = g.qubits[0], c1 = g.qubits[1], c2 = g.qubits[2];
  switch (g.kind) {
    case GateKind::kId:   os << "id " << name(t); break;
    case GateKind::kX:    os << "x " << name(t); break;
    case GateKind::kH:    os << "h " << name(t); break;
    case GateKind::kSX:   os << "sx " << name(t); break;
    case GateKind::kSXdg: os << "sxdg " << name(t); break;
    case GateKind::kRZ:
      os << "rz(";
      write_angle(os, g.param);
      os << ") " << name(t);
      break;
    case GateKind::kP:
      os << "u1(";
      write_angle(os, g.param);
      os << ") " << name(t);
      break;
    case GateKind::kCX:
      os << "cx " << name(c1) << "," << name(t);
      break;
    case GateKind::kCP:
      os << "cu1(";
      write_angle(os, g.param);
      os << ") " << name(c1) << "," << name(t);
      break;
    case GateKind::kCH:
      os << "ch " << name(c1) << "," << name(t);
      break;
    case GateKind::kSWAP:
      os << "swap " << name(t) << "," << name(c1);
      break;
    case GateKind::kCCP: {
      // Standard expansion (qelib1 has no doubly-controlled phase).
      const double l = g.param;
      os << "cu1(";
      write_angle(os, l / 2);
      os << ") " << name(c2) << "," << name(t) << ";\n";
      os << "cx " << name(c1) << "," << name(c2) << ";\n";
      os << "cu1(";
      write_angle(os, -l / 2);
      os << ") " << name(c2) << "," << name(t) << ";\n";
      os << "cx " << name(c1) << "," << name(c2) << ";\n";
      os << "cu1(";
      write_angle(os, l / 2);
      os << ") " << name(c1) << "," << name(t);
      break;
    }
  }
  os << ";\n";
}

// ---------------------------------------------------------------- import

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  QuantumCircuit parse() {
    skip_ws();
    expect_keyword("OPENQASM");
    // Version token, e.g. 2.0.
    (void)parse_number();
    expect(';');
    skip_ws();
    // Optional includes.
    while (peek_keyword("include")) {
      while (pos_ < text_.size() && text_[pos_] != ';') ++pos_;
      expect(';');
      skip_ws();
    }
    // Register declarations and gate applications.
    QuantumCircuit qc(0);
    while (true) {
      skip_ws();
      if (pos_ >= text_.size()) break;
      if (peek_keyword("qreg")) {
        parse_qreg(qc);
        continue;
      }
      if (peek_keyword("creg") || peek_keyword("barrier")) {
        while (pos_ < text_.size() && text_[pos_] != ';') ++pos_;
        expect(';');
        continue;
      }
      parse_gate(qc);
    }
    return qc;
  }

 private:
  [[noreturn]] void fail(const std::string& msg) const {
    int line = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i)
      if (text_[i] == '\n') ++line;
    QFAB_CHECK_MSG(false, "QASM parse error (line " << line << "): " << msg);
    std::abort();  // unreachable
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      if (std::isspace(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      } else if (text_.compare(pos_, 2, "//") == 0) {
        while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
      } else {
        break;
      }
    }
  }

  bool peek_keyword(const std::string& kw) {
    skip_ws();
    if (text_.compare(pos_, kw.size(), kw) != 0) return false;
    const std::size_t end = pos_ + kw.size();
    if (end < text_.size() &&
        (std::isalnum(static_cast<unsigned char>(text_[end])) ||
         text_[end] == '_'))
      return false;
    return true;
  }

  void expect_keyword(const std::string& kw) {
    if (!peek_keyword(kw)) fail("expected '" + kw + "'");
    pos_ += kw.size();
  }

  void expect(char c) {
    skip_ws();
    if (pos_ >= text_.size() || text_[pos_] != c)
      fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool accept(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  std::string parse_identifier() {
    skip_ws();
    std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '_'))
      ++pos_;
    if (pos_ == start) fail("expected identifier");
    return text_.substr(start, pos_ - start);
  }

  double parse_number() {
    skip_ws();
    std::size_t consumed = 0;
    double value = 0.0;
    try {
      value = std::stod(text_.substr(pos_), &consumed);
    } catch (const std::exception&) {
      fail("expected number");
    }
    pos_ += consumed;
    return value;
  }

  long parse_int() {
    skip_ws();
    const double v = parse_number();
    return static_cast<long>(v);
  }

  // Angle grammar: expr := term (('+'|'-') term)*;
  //                term := factor (('*'|'/') factor)*;
  //                factor := 'pi' | number | '-' factor | '(' expr ')'.
  double parse_expr() {
    double value = parse_term();
    for (;;) {
      if (accept('+')) value += parse_term();
      else if (accept('-')) value -= parse_term();
      else return value;
    }
  }

  double parse_term() {
    double value = parse_factor();
    for (;;) {
      if (accept('*')) value *= parse_factor();
      else if (accept('/')) value /= parse_factor();
      else return value;
    }
  }

  double parse_factor() {
    skip_ws();
    if (accept('-')) return -parse_factor();
    if (accept('(')) {
      const double v = parse_expr();
      expect(')');
      return v;
    }
    if (peek_keyword("pi")) {
      pos_ += 2;
      return kPi;
    }
    return parse_number();
  }

  void parse_qreg(QuantumCircuit& qc) {
    expect_keyword("qreg");
    const std::string name = parse_identifier();
    expect('[');
    const long size = parse_int();
    expect(']');
    expect(';');
    if (size <= 0) fail("qreg size must be positive");
    qc.add_register(name, static_cast<int>(size));
  }

  int parse_qubit(const QuantumCircuit& qc) {
    const std::string name = parse_identifier();
    expect('[');
    const long index = parse_int();
    expect(']');
    if (!qc.has_register(name)) fail("unknown register " + name);
    const QubitRange r = qc.reg(name);
    if (index < 0 || index >= r.size) fail("qubit index out of range");
    return r[static_cast<int>(index)];
  }

  void parse_gate(QuantumCircuit& qc) {
    const std::string name = parse_identifier();
    std::vector<double> params;
    if (accept('(')) {
      if (!accept(')')) {
        params.push_back(parse_expr());
        while (accept(',')) params.push_back(parse_expr());
        expect(')');
      }
    }
    std::vector<int> qubits;
    qubits.push_back(parse_qubit(qc));
    while (accept(',')) qubits.push_back(parse_qubit(qc));
    expect(';');

    auto need = [&](std::size_t nq, std::size_t np) {
      if (qubits.size() != nq || params.size() != np)
        fail("wrong arity for gate " + name);
    };
    if (name == "id") { need(1, 0); qc.id(qubits[0]); }
    else if (name == "x") { need(1, 0); qc.x(qubits[0]); }
    else if (name == "h") { need(1, 0); qc.h(qubits[0]); }
    else if (name == "sx") { need(1, 0); qc.sx(qubits[0]); }
    else if (name == "sxdg") { need(1, 0); qc.sxdg(qubits[0]); }
    else if (name == "rz") { need(1, 1); qc.rz(qubits[0], params[0]); }
    else if (name == "u1" || name == "p") {
      need(1, 1);
      qc.p(qubits[0], params[0]);
    } else if (name == "s") { need(1, 0); qc.p(qubits[0], kPi / 2); }
    else if (name == "sdg") { need(1, 0); qc.p(qubits[0], -kPi / 2); }
    else if (name == "t") { need(1, 0); qc.p(qubits[0], kPi / 4); }
    else if (name == "tdg") { need(1, 0); qc.p(qubits[0], -kPi / 4); }
    else if (name == "cx") { need(2, 0); qc.cx(qubits[0], qubits[1]); }
    else if (name == "cu1" || name == "cp") {
      need(2, 1);
      qc.cp(qubits[0], qubits[1], params[0]);
    } else if (name == "ch") { need(2, 0); qc.ch(qubits[0], qubits[1]); }
    else if (name == "swap") { need(2, 0); qc.swap(qubits[0], qubits[1]); }
    else {
      fail("unsupported gate " + name);
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string to_qasm(const QuantumCircuit& qc) {
  std::ostringstream os;
  os << "OPENQASM 2.0;\n";
  os << "include \"qelib1.inc\";\n";
  const QubitNamer namer(qc);
  for (const auto& [name, range] : namer.regs)
    os << "qreg " << name << '[' << range.size << "];\n";
  for (const Gate& g : qc.gates()) emit_gate(os, g, namer);
  return os.str();
}

QuantumCircuit from_qasm(const std::string& text) {
  Parser parser(text);
  return parser.parse();
}

}  // namespace qfab
